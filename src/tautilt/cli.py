"""Command line front end.

Subcommands: catalog, info, count, hasse, strata, reduce, check.  The
algebra argument is a catalog key first, a presentation file path as a
fallback.  Exit codes: 0 on success, 1 when the node budget ran out but
a definite answer was needed, 2 on bad input or input the program cannot
answer (such as a field it cannot compute End radicals over).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import algfile, catalog
from .algebra import (AlgebraError, build_algebra, cartan_matrix,
                      is_nonsingular, is_positive_definite)
from .catalog import CatalogError
from .complexes import ComplexError
from .engine import (EngineError, WalkTruncated, enumerate_graph,
                     strata_counts)
from .fields import QQ, FieldError, parse_field
from .quiver import QuiverError
from .reductions import ReductionError, reduce as reduce_algebra


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1, so that a bad
    value ends with the usage error's exit code 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(p, with_limit=True):
    p.add_argument("algebra", help="catalog key or presentation file path")
    p.add_argument("--lambda", dest="lam", default=None, metavar="Q",
                   help="parameter value, e.g. 2 or 3/2")
    p.add_argument("--field", default=None, metavar="F",
                   help="rationals or gf(p)")
    if with_limit:
        p.add_argument("--limit", type=_positive_int, default=100000,
                       metavar="N", help="node budget for the graph walk")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="tautilt",
        description="exact support tau-tilting enumeration for quiver "
                    "algebra presentations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in presentations")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("info",
                       help="dimension, Cartan data, finiteness certificate")
    _add_common(p, with_limit=False)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("count", help="count the support tau-tilting pairs")
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hasse", help="emit the exchange graph")
    _add_common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("strata", help="pair counts grouped by support, "
                       "checked against the walk of the opposite algebra")
    _add_common(p)
    p.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                   help="most worker processes (2 at most are used) for "
                        "the walks of the algebra and of its opposite; "
                        "each walk runs in one thread")
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("reduce",
                       help="factor out the largest central radical ideal")
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check", help="test a single property")
    _add_common(p)
    p.add_argument("--property", dest="prop", required=True,
                   choices=["symmetric", "cartan-posdef", "tau-finite"])
    p.set_defaults(func=_cmd_check)
    return ap


def _load(args):
    """Resolve the algebra argument and build it; returns (name, algebra)."""
    name = args.algebra
    lam = None
    if args.lam is not None:
        try:
            lam = Fraction(args.lam)
        except (ValueError, ZeroDivisionError):
            raise AlgebraError(f"bad lambda value {args.lam!r}")
    flag_field = parse_field(args.field) if args.field else None
    try:
        pres = catalog.presentation(name)
        file_field = file_lam = None
    except CatalogError as exc:
        path = Path(name)
        if not path.is_file():
            # an out-of-range family size keeps the catalog's reason
            reason = exc if catalog.is_family_key(name) else \
                "not a catalog key"
            raise CatalogError(
                f"unknown algebra {name!r}: {reason}, and not a readable "
                f"file")
        af = algfile.parse_algebra_file(path.read_text())
        pres, file_field, file_lam = af.presentation, af.field, af.lam
        name = path.stem
    field = flag_field or file_field or QQ
    if lam is None:
        lam = file_lam
    return name, build_algebra(pres, field=field, lam=lam)


def _yn(flag) -> str:
    return "yes" if flag else "no"


def _node_id(key) -> str:
    return "_".join(",".join(str(c) for c in g) for g in key)


def _sorted_edges(g):
    return sorted(g.edges, key=lambda e: (e[0], e[2]))


def _dot_text(g) -> str:
    lines = ["digraph hasse {"]
    for key in sorted(g.nodes):
        lines.append(f'  "{_node_id(key)}";')
    for src, _, dst in _sorted_edges(g):
        lines.append(f'  "{_node_id(src)}" -> "{_node_id(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_text(name, A, g) -> str:
    nodes = []
    for key in sorted(g.nodes):
        node = g.nodes[key]
        nodes.append({"g_matrix": [list(v) for v in key],
                      "support": list(node.support),
                      "dims": list(node.h0_dims)})
    edges = [[_node_id(s), _node_id(d)] for s, _, d in _sorted_edges(g)]
    doc = {"algebra": name,
           "dimension": A.dim,
           "cartan": cartan_matrix(A),
           "complete": g.complete,
           "count": str(g.count()),
           "nodes": nodes,
           "edges": edges}
    return json.dumps(doc, indent=2) + "\n"


def _cmd_catalog(args) -> int:
    for key in catalog.catalog_keys():
        print(key)
    return 0


def _cmd_info(args) -> int:
    name, A = _load(args)
    C = cartan_matrix(A)
    sym = A.is_symmetric()
    posdef = is_positive_definite(C)
    print(f"algebra: {name}")
    print(f"vertices: {A.n}")
    print(f"dimension: {A.dim}")
    print(f"cartan: {C}")
    print(f"cartan nonsingular: {_yn(is_nonsingular(C))}")
    print(f"symmetric: {_yn(sym)}")
    print("certificate (symmetric with positive-definite Cartan): "
          f"{_yn(sym and posdef)}")
    return 0


def _cmd_count(args) -> int:
    _, A = _load(args)
    print(enumerate_graph(A, limit=args.limit).count())
    return 0


def _cmd_hasse(args) -> int:
    name, A = _load(args)
    g = enumerate_graph(A, limit=args.limit)
    text = _dot_text(g) if args.format == "dot" else _json_text(name, A, g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_strata(args) -> int:
    _, A = _load(args)
    table = strata_counts(A, limit=args.limit, threads=args.threads)
    for subset in sorted(table.counts, key=lambda s: (len(s), sorted(s))):
        label = ",".join(str(v) for v in sorted(subset))
        print(f"t_{{{label}}} = {table.counts[subset]}")
    print(f"total = {table.total}")
    return 0


def _cmd_reduce(args) -> int:
    _, A = _load(args)
    B = reduce_algebra(A)
    # walk before printing, so a walk that cannot run prints nothing
    ca = enumerate_graph(A, limit=args.limit).count()
    # a zero ideal leaves the algebra as it is, so its count stands
    cb = ca if B.dim == A.dim else \
        enumerate_graph(B, limit=args.limit).count()
    print(f"algebra dimension: {A.dim}")
    print(f"ideal dimension: {A.dim - B.dim}")
    print(f"reduced dimension: {B.dim}")
    print(f"count: {ca}")
    print(f"reduced count: {cb}")
    return 0


def _cmd_check(args) -> int:
    _, A = _load(args)
    if args.prop == "symmetric":
        print(f"symmetric: {_yn(A.is_symmetric())}")
        return 0
    if args.prop == "cartan-posdef":
        print("cartan positive definite: "
              f"{_yn(is_positive_definite(cartan_matrix(A)))}")
        return 0
    g = enumerate_graph(A, limit=args.limit)
    if not g.complete:
        print(f"tau-finite: undecided (limit {args.limit})")
        return 1
    print("tau-finite: yes")
    print(f"count: {g.count()}")
    return 0


def _module_errors() -> tuple:
    """ModuleError when .modules is loaded, else nothing: only code in
    .modules raises it, so naming it never needs the import, which every
    start would pay for."""
    modules = sys.modules.get(f"{__package__}.modules")
    return (modules.ModuleError,) if modules else ()


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CatalogError, algfile.ParseError, QuiverError, FieldError,
            AlgebraError, ReductionError, ComplexError, EngineError,
            OSError, *_module_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, WalkTruncated) else 2


if __name__ == "__main__":
    sys.exit(main())
