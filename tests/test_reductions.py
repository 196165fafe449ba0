"""Reduction and quiver-combinatorics tests.

The central-radical ideal oracle below is a standalone reimplementation:
dense Fraction Gauss-Jordan, the center from the commutation linear
system, and the shrink-to-ideal fixpoint, sharing no code with the
library's spans and kernels.

Hand-checked facts used as frozen values:

* nakayama-2 has center span{1}, so the maximal central-radical ideal
  is zero.
* k[x]/(x^2) and k[x]/(x^3) are commutative, so the ideal is the whole
  radical (dims 1 and 2) and both reduce to the one-dimensional algebra.
* A2: alpha+beta is central, but the ideal it generates contains
  alpha*sigma, and alpha*sigma is not central since (alpha*sigma)*gamma
  = alpha^3 while gamma*(alpha*sigma) = lambda*beta^3.  The elements
  alpha^2, beta^2, alpha^3, beta^3 are central (all products with
  sigma, gamma vanish via the lambda-relations, e.g. (1-lambda)
  alpha^2*sigma = 0), and their span is an ideal.  Hence the maximal
  ideal is exactly span{alpha^2, beta^2, alpha^3, beta^3}: basis
  indices 6, 8, 10, 11 of the built algebra.
* the separated quiver of exrs0-1 (square with a diagonal) has 8
  vertices and 5 arrows; its one nontrivial component is the tree with
  two branch vertices carrying two leaves each, i.e. extended D~5.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import networkx as nx
import pytest

from tautilt import catalog, reductions
from tautilt.algebra import FiniteDimAlgebra, build_algebra
from tautilt.engine import Count, count
from tautilt.fields import QQ, PrimeField
from tautilt.linalg import kernel, make_span
from tautilt.quiver import Presentation, Quiver
from tautilt.reductions import (GraphClass, ReductionError, classify_graph,
                                dynkin_graph, max_central_radical_ideal,
                                quotient_by_ideal, underlying_multigraph)


# -- oracle: dense rational linear algebra, written first -------------------


def _nullspace(rows, width):
    M = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -M[ri][fc]
        basis.append(v)
    return basis


class _Span:
    def __init__(self, width):
        self.width = width
        self.rows = {}

    def residue(self, vec):
        v = [Fraction(c) for c in vec]
        for lead in sorted(self.rows):
            if v[lead]:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, self.rows[lead])]
        return v

    def add(self, vec):
        v = self.residue(vec)
        lead = next((i for i, c in enumerate(v) if c), None)
        if lead is None:
            return False
        self.rows[lead] = [c / v[lead] for c in v]
        return True

    def contains(self, vec):
        return all(c == 0 for c in self.residue(vec))


def _vec(A, x):
    return [Fraction(c) for c in A.as_vector(x)]


def _mulvec(A, x_vec, y_vec):
    out = [Fraction(0)] * A.dim
    for a, ca in enumerate(x_vec):
        if not ca:
            continue
        for b, cb in enumerate(y_vec):
            if not cb:
                continue
            for m, c in A.mul({a: 1}, {b: 1}).items():
                out[m] += ca * cb * Fraction(c)
    return out


def oracle_ideal(A):
    """Basis of the largest ideal inside center(A) ∩ rad(A)."""
    d = A.dim
    eqs = []
    for g in range(d):
        gv = [Fraction(0)] * d
        gv[g] = Fraction(1)
        diff = [[Fraction(0)] * d for _ in range(d)]
        for k in range(d):
            kv = [Fraction(0)] * d
            kv[k] = Fraction(1)
            left = _mulvec(A, kv, gv)
            right = _mulvec(A, gv, kv)
            for m in range(d):
                diff[m][k] = left[m] - right[m]
        eqs.extend(diff)
    for k in range(A.n):            # no idempotent coordinates: inside rad
        row = [Fraction(0)] * d
        row[k] = Fraction(1)
        eqs.append(row)
    basis = _nullspace(eqs, d)
    while True:
        span = _Span(d)
        for v in basis:
            span.add(v)
        m = len(basis)
        eqs = []
        for g in range(d):
            gv = [Fraction(0)] * d
            gv[g] = Fraction(1)
            for prod in (lambda v: _mulvec(A, gv, v),
                         lambda v: _mulvec(A, v, gv)):
                rows = [span.residue(prod(v)) for v in basis]
                for t in range(d):
                    eqs.append([rows[j][t] for j in range(m)])
        combos = _nullspace(eqs, m)
        new = []
        for cm in combos:
            v = [Fraction(0)] * d
            for j, c in enumerate(cm):
                if c:
                    v = [a + c * b for a, b in zip(v, basis[j])]
            new.append(v)
        if len(new) == len(basis):
            return basis
        basis = new


def _span_of(A, elements):
    span = _Span(A.dim)
    for x in elements:
        span.add(_vec(A, x))
    return span


# -- fixtures ---------------------------------------------------------------


def loop_algebra(power):
    q = Quiver([1], [("x", 1, 1)])
    rel = "*".join(["x"] * power)
    return build_algebra(Presentation.from_strings(q, [rel]))


# -- maximal central-radical ideal ------------------------------------------


def test_ideal_nakayama_zero():
    A = catalog.build("nakayama-2")
    assert max_central_radical_ideal(A) == []
    assert oracle_ideal(A) == []


def test_ideal_commutative_loops():
    A2 = loop_algebra(2)
    got = max_central_radical_ideal(A2)
    assert len(got) == 1 and len(oracle_ideal(A2)) == 1
    assert _span_of(A2, got).contains(_vec(A2, {A2.n: 1}))    # x itself
    A3 = loop_algebra(3)
    assert len(max_central_radical_ideal(A3)) == 2
    assert len(oracle_ideal(A3)) == 2


def test_ideal_A2_hand_values():
    A = catalog.build("A2")
    got = max_central_radical_ideal(A)
    assert len(got) == 4
    span = _span_of(A, got)
    for k in (6, 8, 10, 11):        # alpha^2, beta^2, alpha^3, beta^3
        assert span.contains(_vec(A, {k: 1}))
    assert not span.contains(_vec(A, {2: 1, 3: 1}))           # alpha+beta


@pytest.mark.parametrize("key", ["A2", "A5", "L1", "L3", "preproj-D5", "A3",
                                 "A4", "L10"])
def test_ideal_matches_oracle(key):
    A = catalog.build(key)
    got = max_central_radical_ideal(A)
    want = oracle_ideal(A)
    assert len(got) == len(want)
    gspan = _span_of(A, got)
    wspan = _Span(A.dim)
    for v in want:
        wspan.add(v)
    for v in want:
        assert gspan.contains(v)
    for x in got:
        assert wspan.contains(_vec(A, x))


@pytest.mark.parametrize("key", ["A2", "A5", "L1"])
def test_ideal_is_ideal(key):
    A = catalog.build(key)
    got = max_central_radical_ideal(A)
    span = _span_of(A, got)
    for g in range(A.dim):
        for x in got:
            assert span.contains(_vec(A, A.mul({g: 1}, x)))
            assert span.contains(_vec(A, A.mul(x, {g: 1})))


@pytest.mark.parametrize("key", ["A2", "A5", "L1", "L3", "preproj-D5"])
def test_ideal_over_gf_is_central_ideal_of_qq_dimension(key):
    F = PrimeField(101)
    A = catalog.build(key, field=F)
    got = max_central_radical_ideal(A)
    assert len(got) == len(max_central_radical_ideal(catalog.build(key)))
    span = make_span(F, A.dim)
    for x in got:
        assert all(k >= A.n for k in x)         # inside the radical
        span.add(A.as_vector(x))
    assert span.dim == len(got)
    for g in range(A.dim):
        ge = {g: F.one}
        for x in got:
            left, right = A.mul(ge, x), A.mul(x, ge)
            assert left == right                # central
            assert span.contains(A.as_vector(left))
            assert span.contains(A.as_vector(right))


def center_oracle(A):
    """Kernel of z -> ([z, b])_b over every basis element b and all dim
    unknowns: the all-basis commutator system."""
    F = A.field
    rows = []
    for b in range(A.dim):
        eb = {b: F.one}
        by_m = {}
        for k in range(A.dim):
            d = A.sub(A.mul({k: F.one}, eb), A.mul(eb, {k: F.one}))
            for m, c in d.items():
                by_m.setdefault(m, [F.zero] * A.dim)[k] = c
        rows.extend(by_m[m] for m in sorted(by_m))
    return kernel(rows, A.dim, F)


STRUCTURE_KEYS = ["preproj-D5", "preproj-A6", "ladder-6", "L10", "A3", "A4"]


@pytest.mark.parametrize(
    "key", STRUCTURE_KEYS + [f"A{i}" for i in range(1, 17)])
def test_center_spans_the_oracle(key):
    A = catalog.build(key)
    got = A.center_basis()
    want = center_oracle(A)
    assert len(got) == len(want)
    span = make_span(A.field, A.dim)
    for v in want:
        span.add(v)
    assert all(span.contains(v) for v in got)


@pytest.mark.parametrize("key, dim", [
    ("preproj-D5", 3), ("preproj-A6", 0), ("ladder-6", 0), ("L10", 1),
    ("A3", 4), ("A4", 4)])
def test_ideal_dimensions(key, dim):
    assert len(max_central_radical_ideal(catalog.build(key))) == dim


def _ideal_digest(key):
    """sha256 prefix of max_central_radical_ideal, rows and the type of
    every scalar, on the algebra and on its trivial extension, over QQ and
    GF(101)."""
    h = hashlib.sha256()
    for F in (QQ, PrimeField(101)):
        A = catalog.build(key, field=F)
        for B in (A, A.trivial_extension()):
            rows = [sorted((k, type(c).__name__, c) for k, c in x.items())
                    for x in max_central_radical_ideal(B)]
            h.update(hashlib.sha256(repr(rows).encode()).hexdigest().encode())
    return h.hexdigest()[:16]


# frozen from the ideal found by shrinking center ∩ radical until it was
# closed under the idempotents and the arrows
IDEAL_DIGESTS = {
    "A1": "64c6a0dc29991b2e",
    "A2": "fc1cbfd2337b1fa5",
    "A3": "1cbb70c1c14b923c",
    "A4": "1cbb70c1c14b923c",
    "A5": "accf6fa2388c140b",
    "A6": "b31d3e5b931a0027",
    "A7": "1cbb70c1c14b923c",
    "A8": "dec69bdc2ab929ac",
    "A9": "0c480f77da09d8e3",
    "A10": "fc987380e762af05",
    "A11": "4ac81124b0f88c50",
    "A12": "47ebb14d5bd748d8",
    "A13": "98be611fc35e6d3d",
    "A14": "3fbbe20c602985e1",
    "A15": "b4710b738de92cda",
    "A16": "b4710b738de92cda",
    "L1": "accf6fa2388c140b",
    "L2": "b31d3e5b931a0027",
    "L3": "bb1965ca993e0d51",
    "L4": "dd1375c025a6793f",
    "L5": "98be611fc35e6d3d",
    "L6": "a4880c520dec6098",
    "L7": "b4710b738de92cda",
    "L8": "b4710b738de92cda",
    "L9": "30bc624d038ddb1e",
    "L10": "3017b1d216f95707",
    "exrs0-1": "e241a62863140a63",
    "exrs0-2": "45718a3d75b8905c",
    "nakayama-2": "967233d5d2405e8f",
    "preproj-A2": "967233d5d2405e8f",
    "preproj-A3": "2aa37ba672f86a7f",
    "preproj-A4": "397cfef75ceccd1e",
    "preproj-A5": "2e82ec5477188c12",
    "preproj-A6": "5163cd33826d849a",
    "preproj-D4": "1cbb70c1c14b923c",
    "preproj-D5": "a0a2f9a34c15ff07",
    "ladder-3": "4e9e1e42720ac315",
    "ladder-4": "bddb6bbd9da68185",
    "ladder-5": "caae99f65144b93e",
    "ladder-6": "3eae31505d06dd43",
}


@pytest.mark.parametrize("key", sorted(IDEAL_DIGESTS))
def test_ideal_digests(key):
    assert _ideal_digest(key) == IDEAL_DIGESTS[key]


# -- reduce -----------------------------------------------------------------


def test_reduce_loop_algebras():
    assert reductions.reduce(loop_algebra(2)).dim == 1
    assert reductions.reduce(loop_algebra(3)).dim == 1
    assert count(reductions.reduce(loop_algebra(3))) == Count(2, True)
    assert count(loop_algebra(3)) == Count(2, True)


def test_reduce_preserves_counts_small():
    A5 = catalog.build("A5")
    assert count(reductions.reduce(A5)) == count(A5) == Count(8, True)
    A1 = catalog.build("A1")
    assert count(reductions.reduce(A1)) == Count(24, True)


def test_reduce_fixpoint():
    B = reductions.reduce(loop_algebra(3))
    assert max_central_radical_ideal(B) == []
    assert reductions.reduce(B).dim == B.dim


# -- quotients --------------------------------------------------------------


def test_quotient_zero_ideal():
    A = catalog.build("A5")
    B = quotient_by_ideal(A, [])
    assert B.dim == A.dim and B.n == A.n


def test_quotient_rejects_nonradical():
    A = catalog.build("A5")
    with pytest.raises(ReductionError):
        quotient_by_ideal(A, [{0: 1}])                        # e1


def test_quotient_reads_stored_zero_coefficients_as_zero():
    """A generator that stores a zero coefficient on an idempotent still
    lies in the radical."""
    A = catalog.build("A5")
    # alpha^3 and alpha^4 span an ideal
    B = quotient_by_ideal(A, [{9: 1, 0: 0}, {12: 1, 1: 0}])
    assert B.dim == quotient_by_ideal(A, [{9: 1}, {12: 1}]).dim == A.dim - 2


def test_quotient_rejects_nonideal():
    A = loop_algebra(3)
    with pytest.raises(ReductionError):
        quotient_by_ideal(A, [{A.n: 1}])      # span{x} misses x^2


def two_loops(F):
    """k<x, y>/(x^2, y^2, yx) at one vertex, basis e1, x, y, xy.  The ideal
    of 2x + 3y is span{2x + 3y, xy}, so y projects to -2/3 x."""
    table = {(0, 0): ((0, 1),), (1, 2): ((3, 1),)}
    for k in (1, 2, 3):
        table[0, k] = table[k, 0] = ((k, 1),)
    return FiniteDimAlgebra(F, ["1"], [0] * 4, [0] * 4,
                            ["e1", "x", "y", "xy"], table)


def _ideal(A, kind):
    """Generators of one of the ideal kinds the quotient tests use."""
    arrows = A.generators()
    if kind == "central":
        return max_central_radical_ideal(A)
    if kind == "arrow":
        return arrows[:1]
    if kind == "e0":
        return [A.e(0)]
    if kind == "J2":
        return [A.mul(a, b) for a in arrows for b in arrows]
    return [{1: A.field.of(2), 2: A.field.of(3)}]      # two_loops: 2x + 3y


def _quotient_algebra(key, p):
    F = PrimeField(p) if p else QQ
    return two_loops(F) if key == "two-loops" else catalog.build(key, field=F)


def _quotient_digest(B, proj):
    """sha256 of the quotient's labels, quiver data, table and projection
    map, with the type of every scalar."""
    def typed(x):
        return (type(x).__name__, x)
    payload = (B.vertex_labels, B.labels, B.src, B.tgt,
               sorted((k, [(j, typed(c)) for j, c in row])
                      for k, row in B.table.items()),
               [sorted((j, typed(c)) for j, c in m.items()) for m in proj])
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# frozen from the quotient that extended the ideal's basis by unit vectors
# in a second, coefficient-tracking span
QUOTIENT_DIGESTS = [
    ("two-loops", None, "mixed",
     "88ab029ab109817a2f8734379d391df13e51325b47a6e150d76c8fa6a4f2ef17"),
    ("two-loops", 101, "mixed",
     "08fe3f6ccb5835286129593291ab486014d452102efc2edc1f6936648af767b1"),
    ("two-loops", 2147483647, "J2",
     "00579fd6ab59dc03c461532248002f97a6cbc8a85c7c54e1c021f9c9f9f94f52"),
    ("A3", None, "central",
     "0c2b4f1a72932011d2329c83578e189aa24199188410ab681f32c301f9f33ec0"),
    ("A3", 2147483647, "arrow",
     "36dccac3bfe082040c07a699ead7677dbf89d43dc6d9223a272377da876b7316"),
    ("L10", 101, "central",
     "0fec4ec6f38833b6de2ab5b45c7b6eaeb5af2c8a2b23de335dbb46d2c42e83ce"),
    ("L10", None, "J2",
     "94624a334d06dff484602ec6089c6923fffdad5bc55936503c30577c583bb7b0"),
    ("nakayama-2", None, "e0",
     "81fead5859a46e844dccb0f12b04857e102630190e87635955f228704240e29f"),
    ("preproj-A3", 2147483647, "e0",
     "74d45c556826e9d75da8bd2cf0470f89a2f2270372252a7265379918e606a6e2"),
    ("preproj-A3", None, "arrow",
     "5b726eea4710d19a1e111cbf0267b86dea847c6a9f4fd6d96b84fbff80e71055"),
    ("exrs0-1", 101, "J2",
     "d5d7068388b058475c79b6dfb8cad3180bf52d3b6119be2c939d89b45094327e"),
    ("preproj-D4", None, "central",
     "b40561346ce4a8c8ce501386351cd020da4802c5b46ef0aa72b6ef89ec262118"),
    ("ladder-6", 2147483647, "J2",
     "ab63514a6234a925a437121af2b96a613f1d76dd627e565b4511eaaa09ccfe07"),
    ("preproj-A6", 101, "arrow",
     "a414f95470efaffc2f60bdeb3f6b1a5021880a2f15b6e2f3b648e7e857525adf"),
    ("preproj-D5", None, "e0",
     "c49dc36baf1c2b5ca1aa82dc1c082b60e3f139e9194163695f84356ee0e696f3"),
]


@pytest.mark.parametrize("key, p, kind, digest", QUOTIENT_DIGESTS)
def test_quotient_with_projection_digests(key, p, kind, digest):
    A = _quotient_algebra(key, p)
    B, proj = A.quotient_with_projection(_ideal(A, kind))
    assert _quotient_digest(B, proj) == digest


@pytest.mark.parametrize("p", [None, 101, 2147483647],
                         ids=["QQ", "GF101", "GFbig"])
@pytest.mark.parametrize("key", ["two-loops", "A3", "L10", "nakayama-2",
                                 "preproj-A3", "exrs0-1"])
def test_quotient_projection_is_a_surjective_homomorphism(key, p):
    """The projection map is multiplicative, sends each surviving basis
    element to its unit, kills the ideal, and the quotient's dimension is
    A.dim minus the ideal's."""
    A = _quotient_algebra(key, p)
    F = A.field

    def project(x):
        out = {}
        for k, c in x.items():
            for j, d in proj[k].items():
                out[j] = F.add(out.get(j, F.zero), F.mul(c, d))
        return {j: c for j, c in out.items() if not F.is_zero(c)}

    kinds = ["central", "arrow", "e0", "J2"] + \
        (["mixed"] if key == "two-loops" else [])
    for kind in kinds:
        gens = _ideal(A, kind)
        B, proj = A.quotient_with_projection(gens)
        assert len(proj) == A.dim
        for i, label in enumerate(B.labels):
            assert proj[A.labels.index(label)] == {i: F.one}
        ideal = make_span(F, A.dim)
        for a in range(A.dim):
            for b in range(A.dim):
                ab = A.mul({a: F.one}, {b: F.one})
                assert project(ab) == B.mul(proj[a], proj[b])
                for g in gens:
                    x = A.mul(A.mul({a: F.one}, g), {b: F.one})
                    assert project(x) == {}
                    ideal.add(A.as_vector(x))
        assert B.dim == A.dim - ideal.dim


def test_radical_square_zero_dim():
    for key in ["A5", "L1", "A2"]:
        A = catalog.build(key)
        B = A.radical_square_zero()
        assert B.dim == A.n + len(A.presentation.quiver.arrows)


def test_exrs0_finite():
    assert count(catalog.build("exrs0-1")).exact


# -- quiver combinatorics ---------------------------------------------------


def test_separated_exrs0():
    Q = catalog.presentation("exrs0-1").quiver
    S = Q.separated()
    assert len(S.vertices) == 8
    assert len(S.arrows) == len(Q.arrows) == 5
    G = underlying_multigraph(S)
    assert nx.is_bipartite(G)
    D = nx.MultiDiGraph()
    D.add_nodes_from(S.vertices)
    D.add_edges_from((a.src, a.tgt) for a in S.arrows)
    assert nx.is_directed_acyclic_graph(D)


def test_double_single_arrow():
    Q = Quiver([1, 2], [("a", 1, 2)])
    D = Q.doubled()
    assert len(D.arrows) == 2
    assert sorted((a.src, a.tgt) for a in D.arrows) == [(1, 2), (2, 1)]
    P = catalog.presentation("preproj-A2").quiver
    assert sorted(D.underlying_edges()) == sorted(P.underlying_edges())


def test_separated_double_tree():
    Q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    S = Q.doubled().separated()
    G = underlying_multigraph(S)
    comps = [G.subgraph(c).copy() for c in nx.connected_components(G)]
    assert len(comps) == 2
    for c in comps:
        assert classify_graph(c) == GraphClass("Dynkin", "A3", None)


# -- graph classification ---------------------------------------------------


def _path(n):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, i + 1) for i in range(n - 1))
    return g


def _cycle(n):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, (i + 1) % n) for i in range(n))
    return g


def _branches(*lengths):
    """Tree with one center and paths of the given lengths hanging off."""
    g = nx.MultiGraph()
    g.add_node(0)
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return g


def test_classify_paths():
    for n in range(1, 9):
        assert classify_graph(_path(n)) == GraphClass("Dynkin", f"A{n}", None)


def test_classify_d_and_e():
    assert classify_graph(_branches(1, 1, 1)) == \
        GraphClass("Dynkin", "D4", None)
    assert classify_graph(_branches(1, 1, 3)) == \
        GraphClass("Dynkin", "D6", None)
    assert classify_graph(_branches(1, 2, 2)) == \
        GraphClass("Dynkin", "E6", None)
    assert classify_graph(_branches(1, 2, 3)) == \
        GraphClass("Dynkin", "E7", None)
    assert classify_graph(_branches(1, 2, 4)) == \
        GraphClass("Dynkin", "E8", None)


def test_classify_cycles():
    assert classify_graph(_cycle(1)) == \
        GraphClass("ExtendedDynkin", "A~0", None)
    assert classify_graph(_cycle(2)) == \
        GraphClass("ExtendedDynkin", "A~1", None)
    assert classify_graph(_cycle(3)) == \
        GraphClass("ExtendedDynkin", "A~2", None)
    assert classify_graph(_cycle(6)) == \
        GraphClass("ExtendedDynkin", "A~5", None)


def test_classify_extended_d_and_e():
    assert classify_graph(_branches(1, 1, 1, 1)) == \
        GraphClass("ExtendedDynkin", "D~4", None)
    dd5 = nx.MultiGraph()
    dd5.add_edges_from([(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    assert classify_graph(dd5) == GraphClass("ExtendedDynkin", "D~5", None)
    assert classify_graph(_branches(2, 2, 2)) == \
        GraphClass("ExtendedDynkin", "E~6", None)
    assert classify_graph(_branches(1, 3, 3)) == \
        GraphClass("ExtendedDynkin", "E~7", None)
    assert classify_graph(_branches(1, 2, 5)) == \
        GraphClass("ExtendedDynkin", "E~8", None)


def test_classify_other_with_witness():
    got = classify_graph(_branches(2, 2, 3))
    assert got.family == "Other" and got.name is None
    assert got.witness is not None and got.witness[0] == "E~6"
    assert len(got.witness[1]) == 7


def test_classify_separated_exrs0():
    Q = catalog.presentation("exrs0-1").quiver
    G = underlying_multigraph(Q.separated())
    got = classify_graph(G)
    assert got.family == "Other"
    assert got.witness is not None and got.witness[0] == "D~5"
    assert len(got.witness[1]) == 6


def test_classify_round_trip():
    tags = [("Dynkin", t) for t in
            ["A1", "A2", "A7", "D4", "D5", "D8", "E6", "E7", "E8"]] + \
           [("ExtendedDynkin", t) for t in
            ["A~0", "A~1", "A~4", "D~4", "D~5", "D~7",
             "E~6", "E~7", "E~8"]]
    for family, name in tags:
        got = classify_graph(dynkin_graph(name))
        assert got == GraphClass(family, name, None)


# frozen from the arrows read by adding unit vectors one by one to the span
# of the radical x radical products
ARROWS_WITHOUT_WORDS = {
    "reduce(A3)": [4, 5, 6, 7, 8, 9],
    "reduce(L10)": [5, 6, 7, 8, 9, 10, 11, 12],
    "reduce(preproj-A3)": [3, 4, 5, 6],
    "trivial_extension(A5)": [2, 3, 4, 26, 27],
}


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF101"])
@pytest.mark.parametrize("name", sorted(ARROWS_WITHOUT_WORDS))
def test_arrows_without_words_pinned(name, p):
    """An algebra without words takes as arrows the radical basis elements
    that extend J^2 in order."""
    F = PrimeField(p) if p else QQ
    op, key = name[:-1].split("(")
    A = catalog.build(key, field=F)
    B = reductions.reduce(A) if op == "reduce" else A.trivial_extension()
    assert B.words is None
    assert B._arrows() == ARROWS_WITHOUT_WORDS[name]
