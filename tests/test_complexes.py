"""Two-term complex layer tests.

The running example is the path algebra of 1 -> 2 (catalog key ladder-1,
arrow a), whose five two-term silting objects form a pentagon:

    {P1, P2} -> {P1, C} -> {C, P2[1]} -> {P1[1], P2[1]} <- {P2, P1[1]}

with C = (P2 --a--> P1), the projective presentation of S1.  All expected
values below (hom dimensions, mutation results, reduction outcomes) were
computed by hand on this example before the implementation existed:

* Hom_K(P2, C) = 0 although a nonzero chain map exists (it is null-
  homotopic through the identity of P2);
* Hom_K(P1, C) = k, End_K(C) = k, Hom_K(C, P1) = 0;
* {P2[1], P1} is not presilting (the map a survives into the shift),
  {P2, C} is not presilting either;
* mutating {P1, P2} at P2 yields C; at P1 yields P1[1] (zero
  approximation, so the cone is the shift);
* mutating {P1, C} at C must fall back to the other mutation direction
  and return P2.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import random

import pytest

from tautilt import catalog
from tautilt.complexes import (ComplexError, HomK, SummandTable,
                               TwoTermComplex, _action, _approx_components,
                               _hom_dminus, _hom_dzero,
                               _left_mutation,
                               _right_mutation, compose_chain,
                               hom_homotopy, is_presilting, is_silting,
                               mutate)
from tautilt.engine import enumerate_graph
from tautilt.fields import QQ, PrimeField
from tautilt.linalg import kernel, last_pivot_rows, make_span, rank


@pytest.fixture(scope="module")
def L1():
    return catalog.build("ladder-1")


def _arrow(A):
    return next(k for k in range(A.n, A.dim) if len(A.words[k]) == 1)


def _C(A):
    # P2 --a--> P1
    a = _arrow(A)
    return TwoTermComplex(A, [2], [1], [[{a: A.field.one}]])


def test_g_vectors(L1):
    assert TwoTermComplex.stalk(L1, 1).g_vector() == (1, 0)
    assert TwoTermComplex.stalk(L1, 2).g_vector() == (0, 1)
    assert TwoTermComplex.shifted(L1, 1).g_vector() == (-1, 0)
    assert _C(L1).g_vector() == (1, -1)


def test_h0_dims(L1):
    assert TwoTermComplex.stalk(L1, 1).h0_dim_vector() == [1, 1]
    assert TwoTermComplex.shifted(L1, 1).h0_dim_vector() == [0, 0]
    assert _C(L1).h0_dim_vector() == [1, 0]      # H0 = S1


def test_h0_module_matches(L1):
    from tautilt.modules import Module
    h0 = _C(L1).h0_module()
    assert h0.is_iso(Module.simple(L1, 1))


def test_validate_rejects_bad_block(L1):
    a = _arrow(L1)
    with pytest.raises(ComplexError):
        # entry must live in e_1 A e_2; the idempotent e_1 does not
        TwoTermComplex(L1, [2], [1], [[{0: L1.field.one}]]).validate()


def test_homk_dims_pentagon(L1):
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    C = _C(L1)
    assert hom_homotopy(P1, C) == 1
    assert hom_homotopy(C, C) == 1
    assert hom_homotopy(C, P1) == 0
    assert hom_homotopy(P2, C) == 0  # chain map exists but is homotopic to 0
    assert hom_homotopy(P2, P1) == 1  # the inclusion a
    assert hom_homotopy(P1, P2) == 0


def test_presilting_judgements(L1):
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    P1s = TwoTermComplex.shifted(L1, 1)
    P2s = TwoTermComplex.shifted(L1, 2)
    C = _C(L1)
    assert hom_homotopy(P2s, P1, 1) == 1
    assert is_presilting([P1, P2])
    assert is_presilting([P1, C])
    assert is_presilting([C, P2s])
    assert is_presilting([P1s, P2s])
    assert is_presilting([P2, P1s])
    assert not is_presilting([P1, P2s])
    assert not is_presilting([P2, C])
    assert is_silting([P1, P2])
    assert not is_silting([P1])      # too few summands


def test_mutation_pentagon(L1):
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    start = [P1, P2]
    # at P2: approximation P2 -> P1 by a, cone is C
    s1, dir1 = mutate(start, 1)
    assert dir1 == "left"
    assert sorted(t.g_vector() for t in s1) == [(1, -1), (1, 0)]
    # at P1: Hom(P1, P2) = 0, cone is the shift
    s2, dir2 = mutate(start, 0)
    assert dir2 == "left"
    assert sorted(t.g_vector() for t in s2) == [(-1, 0), (0, 1)]
    # walk on: {P1, C} at P1 gives P2[1]
    idx = next(i for i, t in enumerate(s1) if t.g_vector() == (1, 0))
    s3, dir3 = mutate(s1, idx)
    assert dir3 == "left"
    assert sorted(t.g_vector() for t in s3) == [(0, -1), (1, -1)]
    # {C, P2[1]} at C gives P1[1]
    idx = next(i for i, t in enumerate(s3) if t.g_vector() == (1, -1))
    s4, _ = mutate(s3, idx)
    assert sorted(t.g_vector() for t in s4) == [(-1, 0), (0, -1)]
    # {P2, P1[1]} at P2 gives P2[1] as well
    idx = next(i for i, t in enumerate(s2) if t.g_vector() == (0, 1))
    s5, _ = mutate(s2, idx)
    assert sorted(t.g_vector() for t in s5) == [(-1, 0), (0, -1)]


def test_mutation_back_is_right(L1):
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    s1, _ = mutate([P1, P2], 1)          # {P1, C}
    idx = next(i for i, t in enumerate(s1) if t.g_vector() == (1, -1))
    back, direction = mutate(s1, idx)
    assert direction == "right"
    assert sorted(t.g_vector() for t in back) == [(0, 1), (1, 0)]


def test_mutations_stay_silting(L1):
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    node = [P1, P2]
    seen = set()
    frontier = [node]
    while frontier:
        cur = frontier.pop()
        key = tuple(sorted(t.g_vector() for t in cur))
        if key in seen:
            continue
        seen.add(key)
        assert is_silting(cur)
        for k in range(len(cur)):
            nxt, _ = mutate(cur, k)
            nkey = tuple(sorted(t.g_vector() for t in nxt))
            if nkey not in seen:
                frontier.append(nxt)
    assert len(seen) == 5            # the pentagon


def test_reduction_via_mutation_output(L1):
    # mutation output must be homotopy-minimal: no unit entry anywhere
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    s1, _ = mutate([P1, P2], 1)
    for t in s1:
        for row in t.d:
            for entry in row:
                for k, c in entry.items():
                    assert k >= L1.n      # radical entries only


def test_silting_nakayama_star():
    """All mutations of the projective node over nakayama-2 by hand:
    at P1 the approximation is P1 --x--> P2, at P2 it is P2 --y--> P1."""
    A = catalog.build("nakayama-2")
    P1 = TwoTermComplex.stalk(A, 1)
    P2 = TwoTermComplex.stalk(A, 2)
    s1, _ = mutate([P1, P2], 0)
    assert sorted(t.g_vector() for t in s1) == [(-1, 1), (0, 1)]
    s2, _ = mutate([P1, P2], 1)
    assert sorted(t.g_vector() for t in s2) == [(1, -1), (1, 0)]


def test_hom_homotopy_shifts(L1):
    """Shifted Hom dims over the pentagon, by hand: Hom(X, Y[-1]) is the
    space of degree-zero maps X^0 -> Y^-1 commuting with both
    differentials, so Hom(P1, P1[1][-1]) = End(P1) = k while the map
    P1 -> P1 out of C = (P2 -> P1) is killed by precomposition with a."""
    P1 = TwoTermComplex.stalk(L1, 1)
    P2 = TwoTermComplex.stalk(L1, 2)
    P1s = TwoTermComplex.shifted(L1, 1)
    P2s = TwoTermComplex.shifted(L1, 2)
    C = _C(L1)
    assert hom_homotopy(P1, C) == 1
    assert hom_homotopy(P2, P1, 1) == 0
    assert hom_homotopy(P2s, P1, 1) == 1
    assert hom_homotopy(P1, P1s, -1) == 1
    assert hom_homotopy(P2, P1s, -1) == 1
    assert hom_homotopy(P1, P2s, -1) == 0
    assert hom_homotopy(C, P1s, -1) == 0
    with pytest.raises(ComplexError):
        hom_homotopy(P1, P2, 2)


def test_complexes_over_two_algebras_raise():
    # slot lists index both algebras' vertices, but a Hom between
    # complexes over two algebras means nothing
    X = TwoTermComplex.stalk(catalog.build("nakayama-2"), 1)
    Y = TwoTermComplex.stalk(catalog.build("A5"), 1)
    for shift in (-1, 0, 1):
        with pytest.raises(ComplexError):
            hom_homotopy(X, Y, shift)
    with pytest.raises(ComplexError):
        HomK(X, Y)
    with pytest.raises(ComplexError):
        is_presilting([X, Y])


_BIG_PRIME = PrimeField(2147483647)
_FIELDS = {"QQ": QQ, "GF": _BIG_PRIME}


@functools.lru_cache(maxsize=None)
def _closed_walk(key, field):
    """The closed walk of a catalog algebra and its canonical summands."""
    g = enumerate_graph(catalog.build(key, field=_FIELDS[field]))
    assert g.complete
    summands = {t.g_vector(): t for nd in g.nodes.values()
                for t in nd.summands}
    return g, [summands[v] for v in sorted(summands)]


@pytest.mark.parametrize("field", ["QQ", "GF"])
@pytest.mark.parametrize("key", ["A3", "L10"])
def test_h0_dim_vector_is_dim_of_h0_module(key, field):
    """The H^0 dimension vector counts the coordinates off the image's last
    pivots; it is the dimension vector of the quotient h0_module builds
    on them, for every complex in the walk's table."""
    g, _ = _closed_walk(key, field)
    complexes = list(g.table._summands.values())
    assert complexes
    for X in complexes:
        assert X.h0_dim_vector() == X.h0_module().dim_vector()


@pytest.mark.parametrize("key, field", [("A3", "QQ"), ("L10", "QQ"),
                                        ("A3", "GF")])
def test_hom_complex_differentials_compose_to_zero(key, field):
    g, summands = _closed_walk(key, field)
    F = g.table.A.field
    index = g.table._index
    for X in summands:
        for Y in summands:
            h0 = index(X.zero_idx, Y.zero_idx)
            hm = index(X.neg_idx, Y.neg_idx)
            htpy = _hom_dminus(X, Y, index(X.zero_idx, Y.neg_idx), h0, hm)
            d0 = _hom_dzero(X, Y, h0, hm, index(X.neg_idx, Y.zero_idx))
            for vec in htpy:
                vec = dict(vec)
                for row in d0:
                    acc = F.zero
                    for c, x in row:
                        acc = F.add(acc, F.mul(x, vec.get(c, F.zero)))
                    assert F.is_zero(acc)


@pytest.mark.parametrize("key, field, sums, nonzero", [
    ("A3", "QQ", (1739, 3478, 1739), (1276, 2110, 1276)),
    ("A3", "GF", (1739, 3478, 1739), (1276, 2110, 1276)),
    ("L10", "QQ", (1190, 2380, 1190), (947, 1594, 947)),
])
def test_hom_homotopy_sums_over_closed_walk(key, field, sums, nonzero):
    """Pinned sums of dim Hom(X, Y[s]), s = -1, 0, 1, over the ordered
    pairs of a closed walk's 48 canonical summands, and the number of
    nonzero pairs."""
    _, summands = _closed_walk(key, field)
    assert len(summands) == 48
    for s, total, count in zip((-1, 0, 1), sums, nonzero):
        dims = [hom_homotopy(X, Y, s) for X in summands for Y in summands]
        assert (sum(dims), sum(1 for d in dims if d)) == (total, count)


# -- the Hom complex against its definition ---------------------------------


def _dense(sparse, ncols: int, F) -> list:
    """The nonzero ones of the given sparse vectors, as dense lists."""
    out = []
    for ents in sparse:
        if ents:
            vec = [F.zero] * ncols
            for c, x in ents:
                vec[c] = x
            out.append(vec)
    return out


def _pos(idx) -> dict:
    """The coordinate of each triple of a _HomIndex, read off its list."""
    return {trip: m for m, trip in enumerate(idx.triples)}


def _precompose(d, src, tgt) -> list:
    """h -> h d from src = Hom(P^0, W) to tgt = Hom(P^-1, W), where d is
    the differential of a complex P: per triple of src, the nonzero
    coordinates of its image as (position in tgt, coefficient) pairs, each
    triple's product formed on its own and placed by _pos(tgt)."""
    A = src.A
    one = A.field.one
    pos = _pos(tgt)
    out = []
    for i, t, k in src.triples:
        ents = []
        for j, ent in enumerate(d[t]):
            if ent:
                for m, c in A.mul({k: one}, ent).items():
                    ents.append((pos[(i, j, m)], c))
        out.append(ents)
    return out


def _postcompose(d, src, tgt) -> list:
    """h -> d h from src = Hom(V, Q^-1) to tgt = Hom(V, Q^0), where d is
    the differential of a complex Q, in the form of _precompose."""
    A = src.A
    one = A.field.one
    pos = _pos(tgt)
    out = []
    for t, j, k in src.triples:
        ents = []
        for i, row in enumerate(d):
            if row[t]:
                for m, c in A.mul(row[t], {k: one}).items():
                    ents.append((pos[(i, j, m)], c))
        out.append(ents)
    return out


def _ref_dminus(X, Y, hn, h0, hm) -> list:
    """d^-1 h = (d_Y h, h d_X) in the form of _hom_dminus, built pair by
    pair from its definition."""
    off = h0.dim
    return [post + [(off + r, c) for r, c in pre]
            for post, pre in zip(_postcompose(Y.d, hn, h0),
                                 _precompose(X.d, hn, hm))
            if post or pre]


def _ref_dzero(X, Y, h0, hm, h1) -> list:
    """d^0 (f^0, f^-1) = d_Y f^-1 - f^0 d_X in the form of _hom_dzero,
    built pair by pair from its definition."""
    neg = X.A.field.neg
    rows = [[] for _ in range(h1.dim)]
    for col, ents in enumerate(_precompose(X.d, h0, h1)):
        for r, c in ents:
            rows[r].append((col, neg(c)))
    for col, ents in enumerate(_postcompose(Y.d, hm, h1), h0.dim):
        for r, c in ents:
            rows[r].append((col, c))
    return rows


def _entries(vectors) -> list:
    """Sparse vectors with their entries sorted, values typed."""
    return [sorted((c, type(x).__name__, x) for c, x in ents)
            for ents in vectors]


@pytest.mark.parametrize("key, field, limit", [
    ("A3", QQ, 0), ("L10", QQ, 0), ("A3", _BIG_PRIME, 0),
    ("ladder-5", QQ, 300)], ids=["A3-QQ", "L10-QQ", "A3-GF", "ladder-5-QQ"])
def test_hom_complex_matches_definition(key, field, limit):
    """On every ordered pair of a walk's canonical summands, d^0 and d^-1
    placed from the actions, cached in the walk's table or built afresh,
    equal the pair-by-pair build entry for entry; every cached action
    equals a freshly built one."""
    A = catalog.build(key, field=field)
    g = enumerate_graph(A, limit=limit) if limit else enumerate_graph(A)
    assert g.complete or len(g.nodes) >= limit
    table = g.table
    summands = sorted({t for nd in g.nodes.values() for t in nd.summands},
                      key=TwoTermComplex.g_vector)
    index = table._index
    empty = 0
    for X in summands:
        for Y in summands:
            h0 = index(X.zero_idx, Y.zero_idx)
            hm = index(X.neg_idx, Y.neg_idx)
            hn = index(X.zero_idx, Y.neg_idx)
            h1 = index(X.neg_idx, Y.zero_idx)
            d0 = _entries(_ref_dzero(X, Y, h0, hm, h1))
            dm = _entries(_ref_dminus(X, Y, hn, h0, hm))
            for action in (table._action_of, None):
                assert _entries(_hom_dzero(X, Y, h0, hm, h1, action)) == d0
                assert _entries(_hom_dminus(X, Y, hn, h0, hm, action)) == dm
            empty += not (h0.dim and hm.dim and hn.dim and h1.dim)
    # the pairs include Hom complexes with an empty block
    assert empty
    for (Z, v, pre), act in table._actions.items():
        assert act == _action(A, Z, v, pre)


# -- HomK against the tracked-span build ------------------------------------


def homk_oracle(X, Y, index):
    """HomK(X, Y) built the earlier way, as (reps, coords): the homotopy
    vectors and then the kernel vectors of d^0 go into one span; a kernel
    vector is a rep when it enlarges the span.  coords solves for a vector's
    coefficients over the independent generators (the homotopy vectors and
    reps that enlarged the span) with kernel on the augmented matrix, whose
    columns are those generators and then the vector, and reads a class off
    the coefficients past the homotopy generators."""
    F = X.A.field
    h0 = index(X.zero_idx, Y.zero_idx)
    hm = index(X.neg_idx, Y.neg_idx)
    nv = h0.dim + hm.dim
    htpy = _dense(_ref_dminus(X, Y, index(X.zero_idx, Y.neg_idx), h0, hm),
                  nv, F)
    d0 = _dense(_ref_dzero(X, Y, h0, hm, index(X.neg_idx, Y.zero_idx)),
                nv, F)
    span = make_span(F, nv)
    gens = [vec for vec in htpy if span.add(vec)]
    h_rank = len(gens)
    reps = [list(vec) for vec in kernel(d0, nv, F) if span.add(vec)]
    gens += reps

    def coords(vec):
        # the generators are independent, so the kernel is at most one
        # vector, and it is nonzero at the vector's column exactly when vec
        # lies in their span
        rows = [[g[i] for g in gens] + [vec[i]] for i in range(nv)]
        ker = kernel(rows, len(gens) + 1, F)
        if not ker or F.is_zero(ker[0][-1]):
            raise ComplexError("vector is not a chain map")
        s = F.neg(F.inv(ker[0][-1]))
        return [F.mul(s, c) for c in ker[0][h_rank:-1]]
    return reps, coords


def _typed(vec):
    return [(type(x), x) for x in vec]


@pytest.mark.parametrize("field", ["QQ", "GF"])
@pytest.mark.parametrize("key", ["A3", "L10"])
def test_homk_matches_tracked_span_oracle(key, field):
    """On every ordered pair of a closed walk's canonical summands, HomK's
    dim, reps and the coords of each rep equal the oracle's, values and
    types; so do the coords of every composite the walk's images() spans
    were formed from.  A vector outside ker d^0 raises ComplexError."""
    g, summands = _closed_walk(key, field)
    table = g.table
    oracles = {}
    outside = 0
    for X in summands:
        for Y in summands:
            H = HomK(X, Y, table._index)
            reps, coords = oracles[X, Y] = homk_oracle(X, Y, table._index)
            assert H.dim == len(reps)
            assert [_typed(v) for v in H.reps] == [_typed(v) for v in reps]
            for v in reps:
                assert _typed(H.coords(v)) == _typed(coords(v))
            for c in range(H.h0.dim + H.hm.dim):
                unit = [table.A.field.zero] * (H.h0.dim + H.hm.dim)
                unit[c] = table.A.field.one
                try:
                    coords(unit)
                except ComplexError:
                    with pytest.raises(ComplexError):
                        H.coords(unit)
                    outside += 1
                    break
    assert outside
    composites = 0
    for S, M, T in table._images:
        H = table.hom(S, T)
        if not H.dim:
            continue
        firsts = table.rad_end(M) if M is S else table.hom(S, M).split_reps()
        seconds = table.rad_end(M) if M is T \
            else table.hom(M, T).split_reps()
        coords = oracles[S, T][1]
        for second in seconds:
            for first in firsts:
                vec = compose_chain(first, second, H)
                assert _typed(H.coords(vec)) == _typed(coords(vec))
                composites += 1
    assert composites


# -- HomK against the dense elimination -------------------------------------


def homk_dense(H):
    """HomK(H.X, H.Y) built the dense way, as (reps, coords terms,
    rank d^0, rank d^-1): kernel() of d^0's rows made dense, each vector's
    free column found by a backward scan, and the homotopy vectors of the
    pair-by-pair d^-1 read at the free columns through last_pivot_rows."""
    X, Y = H.X, H.Y
    F = X.A.field
    nv = H.h0.dim + H.hm.dim
    chain_basis = kernel(_dense(H._d0, nv, F), nv, F)
    free = []
    for vec in chain_basis:
        f = nv - 1
        while not vec[f]:
            f -= 1
        free.append(f)
    slot = {f: j for j, f in enumerate(free)}
    rows = []
    for ents in _ref_dminus(X, Y, H.hn, H.h0, H.hm):
        row = [F.zero] * len(free)
        for c, x in ents:
            if c in slot:
                row[slot[c]] = x
        rows.append(row)
    pivots = last_pivot_rows(F, rows) if free else {}
    keep = [j for j in range(len(free)) if j not in pivots]
    coords = []
    for r in keep:
        s = F.inv(chain_basis[r][free[r]])
        coords.append(((free[r], s),) + tuple(
            (free[p], F.neg(F.mul(row[r], s)))
            for p, row in pivots.items() if row[r]))
    return ([list(chain_basis[j]) for j in keep], coords,
            nv - len(free), len(pivots))


@pytest.mark.parametrize("key, field, limit", [
    ("A3", QQ, 0), ("L10", QQ, 0), ("A3", _BIG_PRIME, 0),
    ("ladder-5", QQ, 300)], ids=["A3-QQ", "L10-QQ", "A3-GF", "ladder-5-QQ"])
def test_homk_matches_dense_elimination(key, field, limit):
    """Every HomK a walk stored, built by the sparse eliminations of d^0
    and of the homotopy vectors, has the dense build's reps, coords terms
    and ranks, values and types."""
    A = catalog.build(key, field=field)
    g = enumerate_graph(A, limit=limit) if limit else enumerate_graph(A)
    assert g.complete or len(g.nodes) >= limit
    homs = g.table._homs.values()
    assert homs
    for H in homs:
        reps, coords, rank_dzero, rank_dminus = homk_dense(H)
        assert [_typed(v) for v in H.reps] == [_typed(v) for v in reps]
        assert [[(f, type(c), c) for f, c in terms] for terms in H._coords] \
            == [[(f, type(c), c) for f, c in terms] for terms in coords]
        assert (H.rank_dzero, H.rank_dminus) == (rank_dzero, rank_dminus)


def test_hom_homotopy_shifts_match_dense_ranks():
    """On every ordered pair of the closed A3 walk's summands,
    Hom(X, Y[1]) is dim Hom^1 minus the dense rank of d^0, and
    Hom(X, Y[-1]) is dim Hom^-1 minus the dense rank of the pair-by-pair
    d^-1."""
    _, summands = _closed_walk("A3", "QQ")
    F = QQ
    shifted = 0
    for X in summands:
        for Y in summands:
            H = HomK(X, Y)
            nv = H.h0.dim + H.hm.dim
            d0 = _dense(H._d0, nv, F)
            dm = _dense(_ref_dminus(X, Y, H.hn, H.h0, H.hm), nv, F)
            one = len(H._d0) - rank(d0, nv, F)
            minus = H.hn.dim - rank(dm, nv, F)
            assert hom_homotopy(X, Y, 1) == one
            assert hom_homotopy(X, Y, -1) == minus
            shifted += bool(one) + bool(minus)
    assert shifted


# -- minimal approximations against the full chain-space oracle -------------


def _matrix(index, terms):
    """The matrix over the algebra with the given terms of a _HomIndex."""
    mat = [[{} for _ in index.src_idx] for _ in index.tgt_idx]
    for i, j, k, c in terms:
        mat[i][j][k] = c
    return mat


def _rep_matrices(H, vec):
    """A chain vector of H as its two dict matrices over the algebra."""
    return (_matrix(H.h0, H.h0.terms(vec[:H.h0.dim])),
            _matrix(H.hm, H.hm.terms(vec[H.h0.dim:])))


def _compose(A, f, g, H):
    """Chain vector of g after f in the coordinates of H, by products of
    dict matrices over the algebra."""
    F = A.field
    vec = [F.zero] * (H.h0.dim + H.hm.dim)
    for idx, off, fm, gm in ((H.h0, 0, f[0], g[0]),
                             (H.hm, H.h0.dim, f[1], g[1])):
        pos = _pos(idx)
        for i, grow in enumerate(gm):
            for t, ge in enumerate(grow):
                for j, fe in enumerate(fm[t]):
                    for k, c in A.mul(ge, fe).items():
                        m = off + pos[(i, j, k)]
                        vec[m] = F.add(vec[m], c)
    return vec


def _oracle_components(X, others, side, table):
    """The approximation in the full chain space: for each D one span of
    chain vectors of HomK(X, D) (left) or HomK(D, X) (right), seeded with
    the null-homotopic maps, then every composite through every summand
    (through rad End(D) at D itself), then the reps in order; a rep is
    kept when it enlarges the span."""
    A = X.A
    out = []
    for D in others:
        S, T = (X, D) if side == "left" else (D, X)
        H = table.hom(S, T)
        if H.dim == 0:
            continue
        span = make_span(A.field, H.h0.dim + H.hm.dim)
        for vec in _dense(_ref_dminus(S, T, H.hn, H.h0, H.hm),
                          H.h0.dim + H.hm.dim, A.field):
            span.add(vec)
        for M in others:
            if M is D:
                E = table.hom(D, D)
                rad = [(_matrix(E.h0, t0), _matrix(E.hm, tm))
                       for t0, tm in table.rad_end(D)]
                HX = table.hom(S, M) if side == "left" else table.hom(M, T)
                reps = [_rep_matrices(HX, v) for v in HX.reps]
                pairs = itertools.product(reps, rad) if side == "left" \
                    else itertools.product(rad, reps)
            else:
                H1, H2 = table.hom(S, M), table.hom(M, T)
                pairs = itertools.product(
                    [_rep_matrices(H1, v) for v in H1.reps],
                    [_rep_matrices(H2, v) for v in H2.reps])
            for f, g in pairs:
                span.add(_compose(A, f, g, H))
        out.extend((D.g_vector(), t) for t, rep in enumerate(H.reps)
                   if span.add(rep))
    return out


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GF"])
@pytest.mark.parametrize("key, limit", [("A3", 60), ("L10", 60),
                                        ("ladder-5", 40), ("nakayama-2", 6)])
def test_approx_components_match_chain_space_oracle(key, limit, field):
    A = catalog.build(key, field=field)
    g = enumerate_graph(A, limit=limit)
    rng = random.Random(5)
    nodes = rng.sample(sorted(g.nodes), min(8, len(g.nodes)))
    table = SummandTable(A)          # fresh, so images are built here
    seen = dropped = 0
    for node in nodes:
        summands = [table.canonical(t) for t in g.nodes[node].summands]
        for k, X in enumerate(summands):
            others = summands[:k] + summands[k + 1:]
            for side in ("left", "right"):
                got = [(D.g_vector(), t) for D, H, t in
                       _approx_components(X, others, side, table)]
                assert got == _oracle_components(X, others, side, table)
                seen += 1
                dropped += sum(
                    (table.hom(X, D) if side == "left"
                     else table.hom(D, X)).dim for D in others) - len(got)
    assert seen
    if A.n > 2:
        # some component factors through the other summands, so the
        # comparison covers dropped components too
        assert dropped


def _scanned_components(X, others, side, table):
    """_approx_components without its early stop: every summand D with
    HomK on X's side nonzero asks table.kept_reps for the spans through
    every linked M."""
    homs = [(D, table.hom(X, D) if side == "left" else table.hom(D, X))
            for D in others]
    linked = [M for M, H in homs if H.dim]
    out = []
    for D, H in homs:
        if H.dim:
            spans = [table.images(X, M, D) if side == "left"
                     else table.images(D, M, X) for M in linked]
            out.extend((D, H, t) for t in table.kept_reps(H.dim, spans))
    return out


@pytest.mark.parametrize("key, field, limit", [
    ("A3", QQ, 0), ("L10", QQ, 0), ("A3", _BIG_PRIME, 0),
    ("ladder-5", QQ, 300)], ids=["A3-QQ", "L10-QQ", "A3-GF", "ladder-5-QQ"])
def test_approx_early_stop_changes_no_component(key, field, limit):
    # an approximation stops scanning D's factor spans at the first one
    # that fills HomK; at every node, position and side of a walk this
    # gives the components of scanning every span
    A = catalog.build(key, field=field)
    g = enumerate_graph(A, limit=limit) if limit else enumerate_graph(A)
    assert g.complete or len(g.nodes) >= limit
    table = g.table
    stopped = 0
    for node in sorted(g.nodes):
        summands = g.nodes[node].summands
        for k, X in enumerate(summands):
            others = summands[:k] + summands[k + 1:]
            for side in ("left", "right"):
                got = _approx_components(X, others, side, table)
                want = _scanned_components(X, others, side, table)
                assert got == want
                for D in others:
                    H = table.hom(X, D) if side == "left" \
                        else table.hom(D, X)
                    stopped += H.dim > 0 and any(
                        len(table.images(X, M, D) if side == "left"
                            else table.images(D, M, X)) == H.dim
                        for M in others)
    # the comparison covers summands whose scan stops early
    assert stopped


# -- mutation cones, byte for byte ------------------------------------------

_CONE_DIGESTS = {
    ("A3", "QQ"):
        "a11441cd620f2b4acd3590eb1d6d073a40a51fed759715c9839417950d2b5a2c",
    ("A3", "GF"):
        "c8cc3122866b855279a6e7e921b1faad3a02fb8b82c2d2be652815d00e36f99d",
    ("nakayama-2", "QQ"):
        "c682c18541a186883002709fc9e0df90a453fd8f61f047954abcd133b95f17af",
    ("nakayama-2", "GF"):
        "c682c18541a186883002709fc9e0df90a453fd8f61f047954abcd133b95f17af",
    ("preproj-A3", "QQ"):
        "f4085cd6fe933535c574c836b3bba042bba2ea53feed2590a01fd50dfd8249bc",
    ("preproj-A3", "GF"):
        "1fdefee6926094ad697eacdbe9bcb139f61682ab23224afaed290f1af6f4a2b3",
    ("exrs0-1", "QQ"):
        "88d21f41c635a5ebd037f6ddf3114749f7262d4736e6618499186d80ae7c6058",
    ("exrs0-1", "GF"):
        "ddddbc4b2d1ef51258b9447180b01962e04dd03a04c4f6bf9c52d1ae4a1438e8",
    ("A5", "QQ"):
        "7b59fdccf32431cd079f7983f0a5c1f39e9aee2ce0271896404b65db536e9aec",
    ("A5", "GF"):
        "7edafcef3b7600691f5a16302deb8cd04eedc4927f8b4f5f448980e6ea8d82c3",
}


def _cone_digest(key, field) -> str:
    """sha256 over every cone a closed walk's nodes build: each summand of
    each node mutated on a fresh table that holds only the node's
    summands, where exactly one side reduces to a two-term complex; per
    case the side, node key, position, slot lists and sorted differential
    entries are hashed."""
    g, _ = _closed_walk(key, field)
    A = g.A
    digest = hashlib.sha256()
    for node_key in sorted(g.nodes):
        for pos in range(A.n):
            table = SummandTable(A)
            summands = [table.canonical(t)
                        for t in g.nodes[node_key].summands]
            X, others = summands[pos], summands[:pos] + summands[pos + 1:]
            built = [(side, Y) for side, Y in (
                ("left", _left_mutation(X, others, table, named=False)),
                ("right", _right_mutation(X, others, table, named=False)))
                if Y is not None]
            assert len(built) == 1
            side, Y = built[0]
            entries = sorted((i, j, k, str(c)) for i, row in enumerate(Y.d)
                             for j, ent in enumerate(row)
                             for k, c in ent.items())
            digest.update(repr((side, node_key, pos, Y.neg, Y.zero,
                                entries)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("field", ["QQ", "GF"])
@pytest.mark.parametrize("key", ["A3", "nakayama-2", "preproj-A3",
                                 "exrs0-1", "A5"])
def test_cone_digests(key, field):
    """The cones mutation builds, byte for byte, against digests frozen
    when the left and right cones were built by two separate routines."""
    assert _cone_digest(key, field) == _CONE_DIGESTS[key, field]
