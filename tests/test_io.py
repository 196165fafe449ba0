"""File-format and command-line tests.

The DOT oracle is the pentagon over the one-step ladder, whose five
nodes and five left-mutation edges were worked out by hand in
test_complexes; node ids are the sorted g-vectors joined with "_",
entries comma-separated.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tautilt import algfile, catalog, cli, engine
from tautilt.algfile import ParseError, parse_algebra_file, serialize_presentation
from tautilt.fields import FieldError, PrimeField, parse_field
from tautilt.quiver import Quiver, QuiverError


def _norm_rel(rel):
    agg = {}
    for (c, lp), w in rel:
        agg[(w, lp)] = agg.get((w, lp), Fraction(0)) + c
    return {k: v for k, v in agg.items() if v}


def assert_same_presentation(p, q):
    assert p.quiver.vertices == q.quiver.vertices
    assert [(a.name, a.src, a.tgt) for a in p.quiver.arrows] == \
        [(a.name, a.src, a.tgt) for a in q.quiver.arrows]
    assert len(p.relations) == len(q.relations)
    for r1, r2 in zip(p.relations, q.relations):
        assert _norm_rel(r1) == _norm_rel(r2)


# -- parsing ----------------------------------------------------------------


def test_parse_a5_panel():
    text = """
# two vertices, one loop, a two-cycle
vertices = [1, 2]
alpha: 1 -> 1
gamma: 1 -> 2
beta: 2 -> 1
alpha*alpha - gamma*beta
beta*alpha*gamma
"""
    af = parse_algebra_file(text)
    assert af.presentation.quiver.vertices == [1, 2]
    assert len(af.presentation.quiver.arrows) == 3
    assert len(af.presentation.relations) == 2
    assert repr(af.field) == "QQ"
    assert af.lam is None
    assert_same_presentation(af.presentation, catalog.presentation("A5"))


def test_parse_field_and_lambda():
    af = parse_algebra_file("""
vertices = [1]
field = gf(5)
lambda = 3/2
x: 1 -> 1
x*x
""")
    assert repr(af.field) == "GF(5)"
    assert af.lam == Fraction(3, 2)


def test_parse_error_unknown_vertex():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("vertices = [1, 2]\nx: 1 -> 3\n")
    assert exc.value.line == 2


def test_parse_error_duplicate_arrow():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("vertices = [1]\nx: 1 -> 1\nx: 1 -> 1\n")
    assert exc.value.line == 3


def test_parse_error_nonparallel_relation():
    with pytest.raises((ParseError, QuiverError)):
        parse_algebra_file("""
vertices = [1, 2]
alpha: 1 -> 1
gamma: 1 -> 2
alpha*alpha + gamma
""")


def test_parse_error_unknown_arrow_in_relation():
    with pytest.raises((ParseError, QuiverError)):
        parse_algebra_file("vertices = [1]\nx: 1 -> 1\nx*y\n")


def test_parse_error_no_vertices():
    with pytest.raises(ParseError):
        parse_algebra_file("x: 1 -> 1\n")


def test_parse_error_bad_field():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file("vertices = [1]\nfield = gf(6)\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("header,value", [("vertices", "[1, 2]"),
                                          ("field", "gf(7)"),
                                          ("lambda", "5")])
def test_parse_error_repeated_header(header, value):
    # a repeated field or lambda line used to overwrite the first silently
    text = f"vertices = [1]\nfield = gf(5)\nlambda = 3/2\n{header} = {value}\n"
    with pytest.raises(ParseError, match=f"{header} given twice") as exc:
        parse_algebra_file(text)
    assert exc.value.line == 4


@pytest.mark.parametrize("key", ["A1", "A2", "A5", "A16", "L1", "L7", "L10",
                                 "exrs0-1", "exrs0-2", "nakayama-2",
                                 "preproj-D4", "ladder-3"])
def test_round_trip_catalog(key):
    p = catalog.presentation(key)
    af = parse_algebra_file(serialize_presentation(p))
    assert_same_presentation(af.presentation, p)


# -- command line -----------------------------------------------------------


def test_cli_count(capsys):
    assert cli.main(["count", "nakayama-2"]) == 0
    assert capsys.readouterr().out.strip() == "Finite(6)"


def test_cli_count_limit(capsys):
    assert cli.main(["count", "ladder-1", "--limit", "3"]) == 0
    assert capsys.readouterr().out.strip() == "AtLeast(3)"


def test_cli_count_from_file(tmp_path, capsys):
    path = tmp_path / "pentagon.alg"
    path.write_text(serialize_presentation(catalog.presentation("ladder-1")))
    assert cli.main(["count", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "Finite(5)"


def test_cli_unknown_algebra(capsys):
    assert cli.main(["count", "no-such-thing"]) == 2


@pytest.mark.parametrize("key, reason", [
    ("nosuch", "not a catalog key"),
    ("preproj-D3", "preproj-D size must be >= 4"),
    ("ladder-0", "ladder size must be >= 1"),
    ("preproj-A0", "preproj-A size must be >= 1"),
])
def test_cli_unknown_algebra_error_line(key, reason, tmp_path, monkeypatch,
                                        capsys):
    # one unquoted error line that keeps the catalog's reason
    monkeypatch.chdir(tmp_path)
    assert cli.main(["info", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert '"' not in lines[0]
    assert f"unknown algebra {key!r}: {reason}" in lines[0]


def test_cli_bad_lambda(capsys):
    assert cli.main(["count", "A1", "--lambda", "1"]) == 2


def test_cli_count_rejects_an_arrow_named_lambda(tmp_path, capsys):
    # a relation reads the token lambda as the parameter, so an arrow of
    # that name could never be used in one
    path = tmp_path / "lambda-arrow.alg"
    path.write_text("vertices = [1, 2]\nlambda: 1 -> 2\n")
    assert cli.main(["count", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "reserved for the parameter" in lines[0]
    with pytest.raises(QuiverError, match="reserved"):
        Quiver([1], [("lambda", 1, 1)])


def test_cli_info_rejects_non_admissible_file(tmp_path, capsys):
    path = tmp_path / "two-cycle.alg"
    path.write_text("vertices = [1, 2]\nx: 1 -> 2\ny: 2 -> 1\n"
                    "x*y - x*y*x*y\n")
    assert cli.main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not admissible" in lines[0]


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "nakayama-2" in out and "preproj-A<n>" in out


def test_cli_info(capsys):
    assert cli.main(["info", "A5"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 14" in out
    assert re.search(r"^symmetric: yes$", out, re.M)
    assert re.search(r"certificate.*: yes$", out, re.M)
    assert "cartan:" in out


PENTAGON_DOT = """\
digraph hasse {
  "-1,0_0,-1";
  "-1,0_0,1";
  "0,-1_1,-1";
  "0,1_1,0";
  "1,-1_1,0";
  "-1,0_0,1" -> "-1,0_0,-1";
  "0,-1_1,-1" -> "-1,0_0,-1";
  "0,1_1,0" -> "-1,0_0,1";
  "0,1_1,0" -> "1,-1_1,0";
  "1,-1_1,0" -> "0,-1_1,-1";
}
"""


def test_cli_hasse_dot(capsys):
    assert cli.main(["hasse", "ladder-1", "--format", "dot"]) == 0
    assert capsys.readouterr().out == PENTAGON_DOT


def test_cli_hasse_json(capsys):
    assert cli.main(["hasse", "ladder-1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["algebra", "dimension", "cartan", "complete",
                        "count", "nodes", "edges"]
    assert doc["algebra"] == "ladder-1"
    assert doc["dimension"] == 3
    assert doc["cartan"] == [[1, 1], [0, 1]]
    assert doc["complete"] is True
    assert doc["count"] == "Finite(5)"
    assert len(doc["nodes"]) == 5 and len(doc["edges"]) == 5
    start = doc["nodes"][3]
    assert start["g_matrix"] == [[0, 1], [1, 0]]
    assert start["support"] == [1, 2]
    assert start["dims"] == [1, 2]
    ids = {"_".join(",".join(str(c) for c in g) for g in n["g_matrix"])
           for n in doc["nodes"]}
    for src, dst in doc["edges"]:
        assert src in ids and dst in ids


@pytest.mark.parametrize("key, limit", [("L10", 100000), ("ladder-5", 300),
                                        ("nakayama-2", 1)],
                         ids=["L10", "ladder-5-300", "nakayama-2-1"])
def test_json_text_is_the_indented_dump(key, limit):
    # the hasse document is laid out directly, not through json.dumps, but
    # byte for byte as json.dumps(indent=2) writes it; nakayama-2 cut off
    # at one node has no edges, so "edges" is the empty list
    A = catalog.build(key)
    g = engine.enumerate_graph(A, limit)
    ids = cli._node_ids(g)
    doc = {"algebra": key,
           "dimension": A.dim,
           "cartan": cli.cartan_matrix(A),
           "complete": g.complete,
           "count": str(g.count()),
           "nodes": [{"g_matrix": [list(v) for v in k],
                      "support": list(g.nodes[k].support),
                      "dims": list(g.nodes[k].h0_dims)}
                     for k in sorted(g.nodes)],
           "edges": [[ids[s], ids[d]] for s, _, d in cli._sorted_edges(g)]}
    if key == "nakayama-2":
        assert doc["edges"] == []
    assert cli._json_text(key, A, g) == json.dumps(doc, indent=2) + "\n"


# sha256 of the stdout of `hasse`; the exchange graphs, and every byte
# written for them, must not change when the walk gets faster.  A walk cut
# off by its budget keeps the nodes its sorted layers reach first, so the
# ladder-5 pin fixes the truncation order beyond the first 1000 nodes.
HASSE_DIGESTS = [
    (["A3", "--format", "dot"],
     "ce0deb6bb26077e7545381db5da9aff62811950121179b2e4c227a797151d138"),
    (["L10", "--format", "json"],
     "48fb37f09316f27ea22e69ffdd852e6a0aa9b0405e73e8f8bfe308eb21779026"),
    (["ladder-5", "--limit", "2000", "--format", "json"],
     "9f2285a0b1002278002865a3793ebd32821da1e19ae54f5f348ea25e1d852bbc"),
]


@pytest.mark.parametrize("args, digest", HASSE_DIGESTS,
                         ids=["A3-dot", "L10-json", "ladder-5-2000-json"])
def test_cli_hasse_bytes_pinned(args, digest, capsys):
    assert cli.main(["hasse", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_strata(capsys):
    assert cli.main(["strata", "nakayama-2"]) == 0
    out = capsys.readouterr().out
    assert "t_{} = 3" in out
    assert "t_{1} = 1" in out
    assert "t_{2} = 1" in out
    assert "t_{1,2} = 1" in out
    assert "total = 6" in out


def test_cli_strata_budget_exit(capsys):
    assert cli.main(["strata", "ladder-1", "--limit", "2"]) == 1


def _no_exchange(*args):
    raise engine.EngineError("c-vector (0, 0) is not sign-coherent")


def _one_sided_tally(A, limit, dual):
    return ({frozenset(): 1}, 1) if dual else ({frozenset(): 2}, 2)


@pytest.mark.parametrize("argv, name, patch, message", [
    (["count", "A3"], "_exchanged", _no_exchange, "c-vector"),
    (["strata", "ladder-1"], "_exchanged", _no_exchange, "c-vector"),
    (["strata", "ladder-1"], "_stratum_tally", _one_sided_tally,
     "stratum set() disagrees"),
], ids=["count-exchange", "strata-exchange", "strata-disagree"])
def test_cli_engine_failure_exits_2(monkeypatch, capsys, argv, name, patch,
                                    message):
    # only a walk cut off by its node budget exits 1 (WalkTruncated); any
    # other EngineError is an answer the program could not reach, exit 2
    monkeypatch.setattr(engine, name, patch)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert issubclass(engine.WalkTruncated, engine.EngineError)


def test_cli_strata_threads_identical(capsys):
    assert cli.main(["strata", "L10", "--threads", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["strata", "L10", "--threads", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert serial.endswith("total = 504\n")


def test_cli_strata_threads_same_error(capsys):
    runs = []
    for threads in ("1", "2"):
        code = cli.main(["strata", "ladder-1", "--limit", "2",
                         "--threads", threads])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and runs[0][1].err.startswith("error: ")


def test_cli_reduce(capsys):
    assert cli.main(["reduce", "A5"]) == 0
    out = capsys.readouterr().out
    counts = re.findall(r"Finite\(\d+\)", out)
    assert len(counts) == 2 and counts[0] == counts[1] == "Finite(8)"
    assert "ideal dimension:" in out


@pytest.mark.parametrize("key, walks, lines", [
    ("nakayama-2", 1, ["algebra dimension: 4", "ideal dimension: 0",
                       "reduced dimension: 4", "count: Finite(6)",
                       "reduced count: Finite(6)"]),
    ("A5", 2, ["algebra dimension: 14", "ideal dimension: 3",
               "reduced dimension: 11", "count: Finite(8)",
               "reduced count: Finite(8)"]),
])
def test_cli_reduce_walks_a_zero_reduction_once(key, walks, lines,
                                                monkeypatch, capsys):
    # a zero ideal (nakayama-2) leaves the algebra as it is: one walk
    walk = cli.enumerate_graph
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_graph", counted)
    assert cli.main(["reduce", key]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert len(calls) == walks


def test_cli_reduce_prints_nothing_when_the_walk_cannot_run(capsys):
    # the End radicals of L10 need characteristic 0 or above 3
    assert cli.main(["reduce", "L10", "--field", "gf(2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_check_symmetric(capsys):
    assert cli.main(["check", "A5", "--property", "symmetric"]) == 0
    assert re.search(r"^symmetric: yes$", capsys.readouterr().out, re.M)


def test_cli_check_posdef(capsys):
    assert cli.main(["check", "A5", "--property", "cartan-posdef"]) == 0


def test_cli_check_tau_finite(capsys):
    assert cli.main(["check", "nakayama-2", "--property", "tau-finite"]) == 0
    assert "Finite(6)" in capsys.readouterr().out


def test_cli_check_tau_finite_budget(capsys):
    rc = cli.main(["check", "ladder-1", "--property", "tau-finite",
                   "--limit", "2"])
    assert rc == 1
    assert "undecided" in capsys.readouterr().out


def test_cli_zero_denominator_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zero.alg"
    path.write_text("vertices = [1]\na: 1 -> 1\n1/0*a*a\n")
    assert cli.main(["count", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "zero denominator" in lines[0]


def test_cli_gf_field(capsys):
    assert cli.main(["count", "nakayama-2", "--field", "gf(5)"]) == 0
    assert capsys.readouterr().out.strip() == "Finite(6)"


# specs whose digits pass str.isdigit once the signs are stripped, but
# which int() rejects
_INT_REJECTED_SPECS = ["gf(--7)", "gf(+-7)", "gf(-+5)", "gf(\u00b2)"]


@pytest.mark.parametrize("spec", _INT_REJECTED_SPECS)
def test_cli_malformed_gf_spec_exits_2(spec, capsys):
    assert cli.main(["count", "A3", "--field", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad field spec")


@pytest.mark.parametrize("spec", _INT_REJECTED_SPECS)
def test_parse_error_malformed_gf_spec(spec, tmp_path, capsys):
    text = f"vertices = [1]\nfield = {spec}\n"
    with pytest.raises(ParseError, match="bad field spec") as exc:
        parse_algebra_file(text)
    assert exc.value.line == 2
    path = tmp_path / "field.alg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["info", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_parse_field_takes_a_leading_plus_and_refuses_an_underscore():
    # int() takes both
    assert parse_field("gf(+7)") == PrimeField(7)
    with pytest.raises(FieldError, match="bad field spec"):
        parse_field("gf(7_0)")


def test_cli_composite_modulus_near_2_to_31_exits_2(capsys):
    # 46337^2, the square of a prime, the last kind of composite that trial
    # division up to sqrt(p) finds
    assert cli.main(["count", "A3", "--field", "gf(2147117569)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "2147117569 is not prime" in lines[0]


def test_cli_prime_modulus_near_2_to_30_counts(capsys):
    assert cli.main(["count", "A3", "--field", "gf(1073741827)"]) == 0
    assert capsys.readouterr().out.strip() == "Finite(192)"


def test_cli_unanswerable_field_exit_code(capsys):
    # the End radical needs characteristic 0 or p > its dimension
    assert cli.main(["count", "A4", "--field", "gf(2)"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--threads", "--limit"])
def test_cli_nonpositive_count_flag_exit_code(flag, capsys):
    # a value below 1 is bad input, rejected while parsing the arguments;
    # only strata takes --threads
    command = "strata" if flag == "--threads" else "count"
    assert cli.main([command, "A3", flag, "0"]) == 2
    err = capsys.readouterr().err
    assert flag in err and "must be positive" in err


def test_cli_import_pulls_in_neither_numpy_nor_networkx():
    # nor tautilt.modules, neither on import nor when a command runs
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, tautilt.cli; "
            "loaded = lambda: sorted({'numpy', 'networkx', 'tautilt.modules'}"
            " & set(sys.modules)); "
            "print(loaded()); tautilt.cli.main(['count', 'A3']); "
            "print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "Finite(192)", "[]"]


def test_cli_module_error_exits_2(monkeypatch, capsys):
    # cli.main names ModuleError only once tautilt.modules is loaded, as
    # it is wherever the error is raised
    from tautilt.modules import ModuleError

    def fail(*args):
        raise ModuleError("module over a different algebra")
    monkeypatch.setattr(engine, "_exchanged", fail)
    assert cli.main(["count", "A3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: module over a different algebra"]
    assert captured.out == ""
