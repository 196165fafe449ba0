"""Poset-preserving algebra shrinking and quiver-shape recognition.

The reduction quotients an algebra by the largest two-sided ideal lying
inside center ∩ radical; such a quotient leaves the whole support-pair
poset untouched, so counts can be transferred to the smaller algebra.
The ideal is one kernel: the elements of center ∩ radical that kill
every commutator.

The quiver half recognizes simply laced Dynkin and extended Dynkin
shapes on underlying multigraphs (loops and parallel edges included)
and can exhibit an extended-Dynkin subgraph of anything else, which is
the standard certificate that a radical-square-zero algebra fails to be
representation-finite while staying finite for support pairs.  networkx is
imported inside the shape functions only, so the algebra reductions (and
the command line) load without it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import FiniteDimAlgebra
from .linalg import kernel, make_span
from .quiver import Quiver


class ReductionError(ValueError):
    pass


def _combinations(F, combos, vectors, width) -> list[list]:
    """One vector sum_j c_j * vectors[j] per coefficient row c."""
    out = []
    for cm in combos:
        v = [F.zero] * width
        for c, b in zip(cm, vectors):
            if not F.is_zero(c):
                v = [F.add(a, F.mul(c, x)) for a, x in zip(v, b)]
        out.append(v)
    return out


def max_central_radical_ideal(A: FiniteDimAlgebra) -> list[dict]:
    """Basis of the largest two-sided ideal contained in center ∩
    radical, as algebra elements in reduced echelon form: the x in Z ∩ J
    with x c = 0 for every c in A.commutators(), which span [A, A].

    For central x the ideal A x A is x A, so x lies in the largest ideal
    iff x b is central for every b.  As x commutes with the generators g
    (the idempotents and the arrows), x b g - g x b = x [b, g], so that
    holds iff x kills every [b, g], hence all of [A, A]; one side of each
    product suffices, x c = c x.  These x form an ideal: x c is central
    since x [c, g] = 0, and it kills [A, A] again, as
    x c [b, g] = x [cb, g] - x [c, g] b."""
    F = A.field
    center = A.center_basis()
    rows = [[v[k] for v in center] for k in range(A.n)]
    basis = _combinations(F, kernel(rows, len(center), F), center, A.dim)
    if not basis:
        return []
    elems = [A.as_element(v) for v in basis]
    eqs = []
    for c in A.commutators():
        by_m: dict = {}
        for j, x in enumerate(elems):
            for k, xk in x.items():
                for l, cl in c.items():
                    for m, s in A.table.get((k, l), ()):
                        row = by_m.setdefault(m, [F.zero] * len(basis))
                        row[j] = F.add(row[j], F.mul(F.mul(xk, cl), s))
        eqs.extend(by_m.values())
    combos = kernel(eqs, len(basis), F)
    span = make_span(F, A.dim)
    for v in _combinations(F, combos, basis, A.dim):
        span.add(v)
    return [A.as_element(r) for r in span.basis_rows()]


def quotient_by_ideal(A: FiniteDimAlgebra, generators) -> FiniteDimAlgebra:
    """Quotient by a subspace after verifying it really is a two-sided
    ideal inside the radical; use A.quotient_by_ideal directly to close
    up arbitrary generators instead."""
    F = A.field
    gens = [dict(x) for x in generators]
    span = make_span(F, A.dim)
    for x in gens:
        for k, c in x.items():
            if k < A.n and not F.is_zero(c):
                raise ReductionError(
                    "generator has an idempotent component, so the "
                    "subspace leaves the radical")
        span.add(A.as_vector(x))
    for g in range(A.dim):
        ge = {g: F.one}
        for x in gens:
            for prod in (A.mul(ge, x), A.mul(x, ge)):
                if not span.contains(A.as_vector(prod)):
                    raise ReductionError(
                        "subspace is not closed under multiplication "
                        "by basis elements")
    return A.quotient_by_ideal(gens)


def reduce(A: FiniteDimAlgebra) -> FiniteDimAlgebra:
    """Quotient by the maximal central-radical ideal; the support-pair
    poset of the result is isomorphic to that of A."""
    return A.quotient_by_ideal(max_central_radical_ideal(A))


# -- quiver combinatorics ---------------------------------------------------


def underlying_multigraph(Q: Quiver) -> "nx.MultiGraph":
    import networkx as nx
    G = nx.MultiGraph()
    G.add_nodes_from(Q.vertices)
    G.add_edges_from(Q.underlying_edges())
    return G


@dataclass(frozen=True)
class GraphClass:
    """Shape of a multigraph: family is Dynkin, ExtendedDynkin or Other;
    name like "D5" or "E~7" when recognized; witness = (name, node map)
    of an embedded extended-Dynkin subgraph when family is Other and one
    exists."""
    family: str
    name: str | None
    witness: tuple | None


def dynkin_graph(name: str) -> "nx.MultiGraph":
    """The multigraph of a Dynkin or extended Dynkin tag: A<n>, D<n>
    (n >= 4), E6/E7/E8, A~<m> (m >= 0, a cycle on m+1 vertices), D~<m>
    (m >= 4), E~6/E~7/E~8."""
    import networkx as nx
    m = re.fullmatch(r"([ADE])(~?)(\d+)", name)
    if not m:
        raise ReductionError(f"unknown graph tag {name!r}")
    letter, ext, num = m.group(1), m.group(2) == "~", int(m.group(3))
    G = nx.MultiGraph()
    if letter == "A" and not ext:
        if num < 1:
            raise ReductionError("A<n> needs n >= 1")
        G.add_nodes_from(range(num))
        G.add_edges_from((i, i + 1) for i in range(num - 1))
        return G
    if letter == "A":
        G.add_nodes_from(range(num + 1))
        G.add_edges_from((i, (i + 1) % (num + 1)) for i in range(num + 1))
        return G
    if letter == "D" and not ext:
        if num < 4:
            raise ReductionError("D<n> needs n >= 4")
        return _branch_tree(1, 1, num - 3)
    if letter == "D":
        if num < 4:
            raise ReductionError("D~<m> needs m >= 4")
        if num == 4:
            return _branch_tree(1, 1, 1, 1)
        G.add_nodes_from(range(num + 1))
        G.add_edge(0, 2)
        G.add_edge(1, 2)
        for i in range(2, num - 2):
            G.add_edge(i, i + 1)
        G.add_edge(num - 2, num - 1)
        G.add_edge(num - 2, num)
        return G
    lengths = {(6, False): (1, 2, 2), (7, False): (1, 2, 3),
               (8, False): (1, 2, 4), (6, True): (2, 2, 2),
               (7, True): (1, 3, 3), (8, True): (1, 2, 5)}.get((num, ext))
    if lengths is None:
        raise ReductionError(f"no such E diagram {name!r}")
    return _branch_tree(*lengths)


def _branch_tree(*lengths) -> "nx.MultiGraph":
    import networkx as nx
    G = nx.MultiGraph()
    G.add_node(0)
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            G.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return G


def _connected_tag(G) -> str | None:
    V = G.number_of_nodes()
    E = G.number_of_edges()
    degs = dict(G.degree())
    if V == 1:
        if E == 0:
            return "A1"
        if E == 1:
            return "A~0"
        return None
    if any(u == v for u, v in G.edges()):
        return None
    if E == V and all(d == 2 for d in degs.values()):
        return f"A~{V - 1}"
    if E != V - 1:
        return None
    # now a simple tree
    deg3 = [v for v, d in degs.items() if d == 3]
    high = [v for v, d in degs.items() if d >= 4]
    if not deg3 and not high:
        return f"A{V}"
    if len(high) == 1 and degs[high[0]] == 4 and not deg3:
        return "D~4" if V == 5 else None
    if high:
        return None
    if len(deg3) == 1:
        import networkx as nx
        H = G.copy()
        H.remove_node(deg3[0])
        lens = tuple(sorted(len(c) for c in nx.connected_components(H)))
        if lens[:2] == (1, 1):
            return f"D{V}"
        return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8",
                (2, 2, 2): "E~6", (1, 3, 3): "E~7",
                (1, 2, 5): "E~8"}.get(lens)
    if len(deg3) == 2:
        leafy = all(sum(1 for nb in G.neighbors(v) if degs[nb] == 1) == 2
                    for v in deg3)
        return f"D~{V - 1}" if leafy else None
    return None


def _witness(G):
    import networkx as nx
    V = G.number_of_nodes()
    E = G.number_of_edges()
    names = [f"A~{m}" for m in range(V)]
    names += [f"D~{m}" for m in range(4, V)]
    names += ["E~6", "E~7", "E~8"]
    for name in names:
        shape = dynkin_graph(name)
        if shape.number_of_nodes() > V or shape.number_of_edges() > E:
            continue
        gm = nx.isomorphism.MultiGraphMatcher(G, shape)
        if gm.subgraph_is_monomorphic():
            return (name, dict(gm.mapping))
    return None


def classify_graph(G) -> GraphClass:
    """Recognize a multigraph as a (simply laced) Dynkin or extended
    Dynkin shape; anything else is Other, with an embedded
    extended-Dynkin witness reported when one exists."""
    import networkx as nx
    G = nx.MultiGraph(G)
    if G.number_of_nodes() == 0:
        return GraphClass("Other", None, None)
    if not nx.is_connected(G):
        return GraphClass("Other", None, _witness(G))
    tag = _connected_tag(G)
    if tag is None:
        return GraphClass("Other", None, _witness(G))
    family = "ExtendedDynkin" if "~" in tag else "Dynkin"
    return GraphClass(family, tag, None)
