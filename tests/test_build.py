"""Algebra construction tests.

Two independent routes fix the dimensions:

* a truncated-intersection oracle (`trunc_dim`): the quotient of paths of
  length <= N by those ideal elements supported there.  The ideal part is
  found by spanning all relation multiples u*rel*v supported up to length
  N + buffer and intersecting with the length <= N block; the buffer matters
  because an ideal element of low support may only be expressible through
  multiples that overshoot it (A6 has such elements at every length);
* frozen values derived by hand: closed forms for preprojective algebras
  (sum of positive-root heights) and ladders (3n(n+1)/2), and a worked
  completion for A5 giving dimension 14 with Cartan [[5,3],[3,3]].

For N at least the longest surviving word, the oracle value is an upper
bound on the dimension and reaches it once the buffer suffices; agreement
at two consecutive N plus equality with the constructed dimension is the
acceptance condition.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from tautilt import catalog
from tautilt.algebra import (AlgebraError, FiniteDimAlgebra, build_algebra,
                             cartan_matrix, is_nonsingular,
                             is_positive_definite)
from tautilt.fields import QQ, PrimeField


_ORACLE_P = 1000003  # deliberately different from the library's primes


def _sparse_rank(rows, p=_ORACLE_P):
    """Rank mod p of sparse rows given as {column: value} dicts."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if row[c] % p == 0:
                del row[c]
                continue
            if c in pivots:
                coef = row[c] % p
                for k, v in pivots[c].items():
                    row[k] = (row.get(k, 0) - coef * v) % p
                row = {k: v for k, v in row.items() if v}
            else:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items() if v}
                break
    return len(pivots)


def trunc_dim(pres, N, buffer=2, lam=None):
    """Independent dimension oracle.

    dim(span of relation multiples inside length <= N) is computed as
    rank(all multiples supported <= N+buffer) minus the rank of the same
    rows restricted to the length > N columns; subtracting from the path
    count of length <= N gives the estimate.
    """
    p = _ORACLE_P
    q = pres.quiver
    Mlen = N + buffer
    paths = [(v, ()) for v in range(q.n)]
    cur = list(paths)
    for _ in range(Mlen):
        nxt = []
        for (v, w) in cur:
            endv = q.vindex[q.arrows[w[-1]].tgt] if w else v
            for i, a in enumerate(q.arrows):
                if q.vindex[a.src] == endv:
                    nxt.append((v, w + (i,)))
        paths.extend(nxt)
        cur = nxt
    index = {pt: i for i, pt in enumerate(paths)}
    nshort = sum(1 for (v, w) in paths if len(w) <= N)
    highset = {i for i, (v, w) in enumerate(paths) if len(w) > N}
    # group paths by their end / start vertex, sorted by length
    by_end: dict[int, list] = {}
    by_start: dict[int, list] = {}
    for (v, w) in paths:
        endv = q.vindex[q.arrows[w[-1]].tgt] if w else v
        by_end.setdefault(endv, []).append((v, w))
        by_start.setdefault(v, []).append((v, w))
    for group in list(by_end.values()) + list(by_start.values()):
        group.sort(key=lambda pt: len(pt[1]))
    bound = pres.bind(QQ, QQ.of(lam) if lam is not None else
                      (QQ.of(2) if pres.has_lambda else None))
    rows = []
    for rel in bound:
        rl = max(len(w) for _, w in rel)
        src = q.vindex[q.word_src(rel[0][1])]
        tgt = q.vindex[q.word_tgt(rel[0][1])]
        for (uv, uw) in by_end.get(src, []):
            if len(uw) + rl > Mlen:
                break
            for (_, vw) in by_start.get(tgt, []):
                if len(uw) + rl + len(vw) > Mlen:
                    break
                vec: dict[int, int] = {}
                for (c, w) in rel:
                    f = Fraction(c)
                    val = f.numerator * pow(f.denominator, -1, p) % p
                    k = index[(uv, uw + w + vw)]
                    vec[k] = (vec.get(k, 0) + val) % p
                rows.append(vec)
    r_full = _sparse_rank(rows)
    r_high = _sparse_rank([{k: v for k, v in r.items() if k in highset}
                           for r in rows])
    return nshort - (r_full - r_high)


# hand-derived dimensions (closed forms / direct path counts)
FROZEN_DIMS = {
    "nakayama-2": 4,       # e1, e2, x, y
    "exrs0-1": 9,          # 4 idempotents + 5 arrows, both squares die
    "exrs0-2": 6,          # 3 idempotents + 3 arrows
    "preproj-A1": 1,
    "preproj-A2": 4,       # root heights 1+1+2
    "preproj-A3": 10,      # 1*3 + 2*2 + 3
    "preproj-A4": 20,
    "preproj-D4": 28,      # heights: 4*1 + 3*2 + 3*3 + 4 + 5
    "ladder-1": 3,
    "ladder-2": 9,         # 3n(n+1)/2
    "ladder-5": 45,
    "A5": 14,              # worked completion; Cartan [[5,3],[3,3]]
    "A3": 28,              # same algebra as preproj-D4
}


@pytest.mark.parametrize("key,expect", sorted(FROZEN_DIMS.items()))
def test_frozen_dimensions(key, expect):
    A = catalog.build(key)
    assert A.dim == expect


def test_a5_cartan_hand_value():
    A = catalog.build("A5")
    assert cartan_matrix(A) == [[5, 3], [3, 3]]


def test_small_cartans_hand_values():
    assert cartan_matrix(catalog.build("exrs0-2")) == \
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert cartan_matrix(catalog.build("exrs0-1")) == \
        [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert cartan_matrix(catalog.build("nakayama-2")) == [[1, 1], [1, 1]]


ORACLE_CASES = [
    ("A5", 6), ("A6", 6), ("A13", 6), ("A15", 6), ("A16", 6),
    ("L1", 6), ("L2", 6), ("L5", 6), ("nakayama-2", 3),
    ("exrs0-1", 3), ("exrs0-2", 3), ("A2", 6), ("preproj-A3", 4),
]


@pytest.mark.parametrize("key,N", ORACLE_CASES)
def test_dimension_against_truncation_oracle(key, N):
    pres = catalog.presentation(key)
    A = catalog.build(key)
    d1 = trunc_dim(pres, N)
    d2 = trunc_dim(pres, N + 1)
    assert d1 == d2, "oracle not stable; raise N"
    assert A.dim == d1


def test_relations_vanish_via_table():
    """Evaluate every relation through the multiplication table (not the
    Groebner normal form directly)."""
    for key in ("A1", "A4", "A7", "A10", "A12", "L4", "L6", "L10",
                "preproj-D4"):
        pres = catalog.presentation(key)
        A = catalog.build(key)
        q = pres.quiver
        arrow_elem = []
        for a in q.arrows:
            idx = next(k for k in range(A.n, A.dim)
                       if A.words[k] == (q.arrow_index[a.name],))
            arrow_elem.append({idx: A.field.one})
        for rel in pres.bind(A.field, A.lam):
            total = {}
            for (c, w) in rel:
                prod = arrow_elem[w[0]]
                for i in w[1:]:
                    prod = A.mul(prod, arrow_elem[i])
                total = A.add(total, A.scale(prod, c))
            assert total == {}, f"{key}: relation does not vanish"


def test_associativity_and_identity():
    for key in ("A5", "nakayama-2", "exrs0-2", "ladder-2"):
        A = catalog.build(key)
        assert A.check_associativity()
    big = catalog.build("A1")
    assert big.check_associativity(sample=4000)


def test_basis_invariant():
    for key in ("A2", "A13", "preproj-A3", "ladder-3"):
        A = catalog.build(key)
        # idempotents head the basis
        for i in range(A.n):
            assert A.src[i] == i and A.tgt[i] == i
            assert A.table[(i, i)] == ((i, A.field.one),)
        # remaining elements multiply into the span of non-idempotents
        for (a, b), row in A.table.items():
            if a >= A.n and b >= A.n:
                assert all(k >= A.n for k, _ in row)


def test_cartan_row_sums():
    for key in ("A1", "A9", "L10"):
        A = catalog.build(key)
        C = cartan_matrix(A)
        assert sum(sum(r) for r in C) == A.dim


def test_lambda_guard():
    with pytest.raises(AlgebraError):
        catalog.build("A1", lam=0)
    with pytest.raises(AlgebraError):
        catalog.build("A2", lam=1)
    # over GF(2) the default lambda = 2 collapses to 0
    with pytest.raises(AlgebraError):
        catalog.build("A1", field=PrimeField(2))


def test_lambda_variants_build():
    A = catalog.build("A2", lam=3)
    B = catalog.build("A2", lam=Fraction(1, 2))
    assert A.dim == B.dim == catalog.build("A2").dim


def test_gf_build_matches_rational_dimension():
    for key in ("A5", "A13", "nakayama-2"):
        assert catalog.build(key, field=PrimeField(5)).dim == \
            catalog.build(key).dim


def test_infinite_dimensional_rejected():
    from tautilt.quiver import Presentation, Quiver
    q = Quiver([1], [("a", 1, 1)])
    free = Presentation.from_strings(q, [])  # free loop: k[a]
    with pytest.raises(AlgebraError):
        build_algebra(free, cap=4)


@pytest.mark.parametrize("cap", [0, -1])
def test_nonpositive_cap_rejected(cap):
    # the cap doubles until it reaches 48, which a cap below 1 never does
    with pytest.raises(AlgebraError, match="cap must be positive"):
        build_algebra(catalog.presentation("A3"), cap=cap)


def test_non_admissible_rejected():
    from tautilt.quiver import Presentation, Quiver
    q = Quiver([1], [("a", 1, 1)])
    # k[a]/(a^2 - a^3) is 3-dimensional but a^2 becomes idempotent
    pres = Presentation.from_strings(q, ["a^2 - a^3"])
    with pytest.raises(AlgebraError):
        build_algebra(pres, cap=6)


def test_non_admissible_two_cycle_rejected():
    from tautilt.quiver import Presentation, Quiver
    q = Quiver([1, 2], [("x", 1, 2), ("y", 2, 1)])
    # xy = (xy)^2 makes xy an idempotent inside the span of the paths
    pres = Presentation.from_strings(q, ["x*y - x*y*x*y"])
    with pytest.raises(AlgebraError, match="not admissible"):
        build_algebra(pres)


GENERATOR_KEYS = ([f"A{i}" for i in range(1, 17)]
                  + [f"L{i}" for i in range(1, 11)]
                  + ["preproj-A3", "preproj-A4", "preproj-D4", "preproj-D5",
                     "ladder-3", "ladder-4", "exrs0-1", "exrs0-2",
                     "nakayama-2"])


@pytest.mark.parametrize("key", GENERATOR_KEYS)
def test_generators_without_words_are_the_arrows(key):
    """The arrows read off the words agree with the generators read off
    the table alone (the basis elements extending J^2)."""
    A = catalog.build(key)
    bare = FiniteDimAlgebra(A.field, A.vertex_labels, A.src, A.tgt,
                            A.labels, A.table)
    assert bare.generators() == A.generators()


def test_cartan_predicates():
    assert is_positive_definite([[2, 1], [1, 2]])
    assert not is_positive_definite([[1, 2], [2, 1]])
    assert is_nonsingular([[1, 1], [0, 1]])
    assert not is_nonsingular([[1, 1], [1, 1]])
