"""Exact linear algebra tests.

Oracle: sympy's rational Matrix (independent implementation).  Random cases
are checked against it; hand cases are frozen from pencil-and-paper row
reduction.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from tautilt.fields import QQ, FieldError, PrimeField, _is_prime
from tautilt.linalg import (SpanGF, SpanQQ, combine, kernel, make_span,
                            non_pivots, primitive, rank, sparse_echelon)


def test_primitive_hand_cases():
    assert primitive([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive([-2, -4, 6]) == (1, 2, -3)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([Fraction(0), Fraction(-5, 7)]) == (0, 1)


def test_kernel_hand_case():
    # x + y + z = 0, x - z = 0  ->  span{(1, -2, 1)}
    ker = kernel([(1, 1, 1), (1, 0, -1)], 3, QQ)
    assert ker == [(1, -2, 1)]


def test_kernel_empty_system():
    assert kernel([], 3, QQ) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_span_rank_and_membership():
    s = SpanQQ(3)
    assert s.add([1, 2, 3])
    assert s.add([0, 1, 1])
    assert not s.add([1, 3, 4])
    assert s.dim == 2
    assert s.contains([2, 5, 7])
    assert not s.contains([0, 0, 1])


def test_span_coords_exact():
    # the echelon rows of span{(1/2, 0, 1), (0, 3, 0)} are (1, 0, 2) and
    # (0, 1, 0); coords are read over those rows, at their pivots
    s = SpanQQ(3)
    s.add([Fraction(1, 2), 0, 1])
    s.add([0, 3, 0])
    assert s.basis_rows() == [(1, 0, 2), (0, 1, 0)]
    assert s.coords([1, 1, 2]) == [1, 1]
    assert s.coords([Fraction(1, 2), 0, 1]) == [Fraction(1, 2), 0]
    assert s.coords([1, 0, 0]) is None


def test_span_gf_basic():
    s = SpanGF(3, 5)
    assert s.add([1, 2, 3])
    assert s.add([2, 4, 7])  # reduces to (0,0,1)
    assert s.dim == 2
    assert s.contains([3, 6, 14])
    c_span = SpanGF(2, 3)
    c_span.add([2, 2])
    assert c_span.basis_rows() == [(1, 1)]
    assert c_span.coords([2, 2]) == [2]
    assert c_span.coords([2, 1]) is None
    c_span.add([0, 2])
    # the whole of GF(3)^2: the echelon rows are the unit rows
    assert c_span.coords([2, 1]) == [2, 1]


def _random_matrix(rng, nrows, ncols, scale=9):
    return [[rng.randint(-scale, scale) for _ in range(ncols)]
            for _ in range(nrows)]


def test_kernel_against_sympy_random():
    rng = random.Random(20260823)
    for _ in range(40):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 7)
        rows = _random_matrix(rng, nrows, ncols)
        ker = kernel(rows, ncols, QQ)
        M = sympy.Matrix(rows) if rows else sympy.zeros(0, ncols)
        null = M.nullspace()
        assert len(ker) == len(null)
        # every returned vector really is in the kernel
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
        # and they are independent
        if ker:
            assert sympy.Matrix([list(v) for v in ker]).rank() == len(ker)


def test_kernel_fallback_matches_fast_path():
    """kernel() over QQ is the one fraction-free elimination; its basis must
    be exactly sympy's nullspace basis (one vector per free column of the
    reduced echelon form, free columns ascending), each vector scaled to a
    primitive integer vector."""
    rng = random.Random(7)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols, scale=30)
        expected = [primitive([Fraction(int(x.p), int(x.q)) for x in v])
                    for v in sympy.Matrix(rows).nullspace()]
        assert kernel(rows, ncols, QQ) == expected


def test_rank_against_sympy_random():
    rng = random.Random(99)
    for _ in range(30):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols)
        assert rank(rows, ncols, QQ) == (sympy.Matrix(rows).rank()
                                         if rows else 0)


def test_gf_inverse_is_the_fermat_inverse():
    """PrimeField.inv, PrimeField.of on a fraction and the pivot scaling of
    SpanGF.add invert by pow(x, -1, p): each equals x^(p-2) mod p, and zero
    still has no inverse."""
    rng = random.Random(3)
    for p in (2, 3, 5, 7, 101, 65537, 2147483647):
        F = PrimeField(p)
        for _ in range(40):
            x = rng.randrange(1, p)
            fermat = pow(x, p - 2, p)
            assert F.inv(x) == F.inv(x + p * rng.randint(-3, 3)) == fermat
            num = rng.randint(-10 ** 6, 10 ** 6)
            assert F.of(Fraction(num, x)) == num * fermat % p
            span = SpanGF(2, p)
            span.add([x, 1])
            assert span.basis_rows() == [(1, fermat)]
        for zero in (0, p, -2 * p):
            with pytest.raises(ZeroDivisionError):
                F.inv(zero)
        with pytest.raises(FieldError):
            F.of(Fraction(1, p))


def test_gf_modulus_range_is_checked_before_primality():
    """2^89 - 1 is a Mersenne prime, far past the range in which _is_prime
    answers, so the range check must reject it first."""
    with pytest.raises(FieldError, match="modulus too large"):
        PrimeField(2 ** 89 - 1)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# the moduli gf(p) must decide like trial division: the benchmark's primes,
# strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5, Carmichael numbers,
# the square of the largest prime below sqrt(2^31) (the last kind of
# composite trial division finds), a product of two primes near it, and
# 2^31 + 1 = 3 * 715827883
_PRIMALITY_CASES = (
    2147483647, 1073741827, 2147483629, 1073741831,
    2147483587, 1073741833, 2147483579, 1073741839,
    2047, 1373653, 25326001,
    561, 1105, 1729, 41041, 825265, 321197185,
    2147117569, 2146654199, 2 ** 31 + 1,
)


def test_is_prime_matches_trial_division_below_2_to_16():
    assert [n for n in range(-3, 1 << 16)
            if _is_prime(n) != _trial_division_is_prime(n)] == []


@pytest.mark.parametrize("n", _PRIMALITY_CASES)
def test_is_prime_matches_trial_division_on_listed_values(n):
    assert _is_prime(n) == _trial_division_is_prime(n)


def test_is_prime_refuses_past_its_proven_bound():
    # 3215031751 = 151 * 751 * 28351 is the least strong pseudoprime to the
    # bases 2, 3, 5 and 7; the field's range check runs before primality
    with pytest.raises(ValueError):
        _is_prime(3215031751)
    with pytest.raises(FieldError, match="modulus too large"):
        PrimeField(3215031751)
    assert _is_prime(3215031749) == _trial_division_is_prime(3215031749)


def test_gf_kernel_dimension():
    F = PrimeField(5)
    rows = [[1, 2, 3], [2, 4, 2]]
    ker = kernel(rows, 3, F)
    # rank 2 mod 5 (second row minus twice the first is (0,0,-4)), nullity 1
    assert len(ker) == 1
    v = ker[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) % 5 == 0


def _gf_nullity(rows, ncols, p):
    """Number of vectors of GF(p)^ncols killed by every row, by brute force."""
    return sum(1 for v in itertools.product(range(p), repeat=ncols)
               if all(sum(a * b for a, b in zip(r, v)) % p == 0
                      for r in rows))


def test_gf_kernel_against_brute_force():
    p = 5
    F = PrimeField(p)
    rng = random.Random(505)
    for _ in range(30):
        nrows = rng.randint(0, 4)
        ncols = rng.randint(1, 4)
        rows = _random_matrix(rng, nrows, ncols)
        ker = kernel(rows, ncols, F)
        assert _gf_nullity(rows, ncols, p) == p ** len(ker)
        # column c is free iff adding it to the columns before it grows the
        # solution count, i.e. it is not a pivot of the reduced echelon form
        free = [c for c in range(ncols)
                if _gf_nullity([r[:c + 1] for r in rows], c + 1, p)
                > _gf_nullity([r[:c] for r in rows], c, p)]
        assert len(free) == len(ker)
        for f, v in zip(free, ker):
            assert all(0 <= x < p for x in v)
            assert [v[c] for c in free] == [int(c == f) for c in free]
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) % p == 0


def test_rational_rows_kernel():
    rows = [[Fraction(1, 2), Fraction(1, 3)]]
    ker = kernel(rows, 2, QQ)
    assert ker == [(2, -3)] or ker == [(-2, 3)]


def test_rationals_stay_int_when_integral():
    assert type(QQ.of(Fraction(4, 2))) is int
    assert type(QQ.of(7)) is int
    assert type(QQ.inv(1)) is int
    assert type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.inv(Fraction(-1, 3)) == -3
    assert type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 3), Fraction(2, 3))) is int
    assert type(QQ.sub(Fraction(5, 3), Fraction(2, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    s = SpanQQ(2)
    s.add([2, 1])                   # one echelon row, pivot entry 2
    assert s.coords([4, 2]) == [2]
    assert type(s.coords([4, 2])[0]) is int
    assert type(s.coords([Fraction(4, 3), Fraction(2, 3)])[0]) is Fraction
    assert s.coords([1, Fraction(1, 2)]) == [Fraction(1, 2)]


def test_span_coords_with_rational_generators():
    # generators handed in as raw rationals; coords refer to the echelon
    # rows, and their combination gives the vector back
    s = SpanQQ(2)
    s.add([Fraction(2, 3), 0])
    s.add([Fraction(1, 5), Fraction(1, 5)])
    for vec in ([1, 1], [Fraction(1, 7), Fraction(-3, 2)]):
        c = s.coords(vec)
        assert [sum(a * r[j] for a, r in zip(c, s.basis_rows()))
                for j in range(2)] == vec


def _combine(F, coeffs, rows, ncols):
    out = [F.zero] * ncols
    for a, r in zip(coeffs, rows):
        out = [F.add(x, F.mul(a, y)) for x, y in zip(out, r)]
    return out


@pytest.mark.parametrize("p", [None, 7, 2147483647],
                         ids=["QQ", "GF7", "GFbig"])
def test_span_coords_rebuild_members(p):
    """coords of a random member of a random span are its coefficients over
    basis_rows(): they give the member back, are field elements (over QQ an
    int exactly when integral), and a vector off the span gives None."""
    F = PrimeField(p) if p else QQ
    rng = random.Random(11)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        span = SpanGF(ncols, p) if p else SpanQQ(ncols)
        for _ in range(rng.randint(0, ncols)):
            span.add([F.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                      if not p else rng.randrange(p) for _ in range(ncols)])
        rows = span.basis_rows()
        coeffs = [F.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                  if not p else rng.randrange(p) for _ in rows]
        vec = _combine(F, coeffs, rows, ncols)
        got = span.coords(vec)
        assert got == coeffs
        assert [type(c) for c in got] == [type(c) for c in coeffs]
        assert _combine(F, got, rows, ncols) == vec
        if span.dim < ncols:
            off = next(u for u in ([F.zero] * j + [F.one]
                                   + [F.zero] * (ncols - j - 1)
                                   for j in range(ncols))
                       if not span.contains(u))
            assert span.coords(off) is None
            assert span.coords(_combine(F, [F.one, F.one], [vec, off],
                                        ncols)) is None


def test_kernel_vectors_sit_at_their_free_columns():
    """HomK reads chain maps off the free columns: each kernel vector is
    nonzero at its free column, its last nonzero entry, and zero at every
    other free column, over QQ and GF(p)."""
    rng = random.Random(11)
    for field in (QQ, PrimeField(7), PrimeField(2147483647)):
        for _ in range(30):
            nrows = rng.randint(0, 5)
            ncols = rng.randint(1, 7)
            rows = [[field.of(x) for x in row] for row in
                    _random_matrix(rng, nrows, ncols, scale=2)]
            ker = kernel(rows, ncols, field)
            free = [max(c for c, x in enumerate(v) if x) for v in ker]
            assert free == sorted(set(free))
            for v in ker:
                assert [c for c in free if v[c]] == \
                    [max(c for c, x in enumerate(v) if x)]


@pytest.mark.parametrize("p", [None, 7, 2147483647],
                         ids=["QQ", "GF7", "GFbig"])
def test_last_pivot_non_pivots_are_greedy_unit_extension(p):
    """The columns that are not last pivots of a span's echelon rows are
    the unit vectors that enlarge it when added one by one in column
    order: on random row sets (rational entries over QQ), the empty set
    and full-rank sets."""
    F = PrimeField(p) if p else QQ
    rng = random.Random(18)

    def scalar():
        if p:
            return rng.choice([0, 0, 1, rng.randrange(p)])
        return F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    cases = []
    for _ in range(60):
        ncols = rng.randint(1, 7)
        cases.append(([[scalar() for _ in range(ncols)]
                       for _ in range(rng.randint(1, ncols + 1))], ncols))
    for ncols in range(1, 6):
        cases.append(([], ncols))
        # unitriangular rows in shuffled order span everything
        tri = [[F.zero] * j + [F.one] + [scalar() for _ in range(j + 1, ncols)]
               for j in range(ncols)]
        rng.shuffle(tri)
        cases.append((tri, ncols))
    for rows, ncols in cases:
        span = make_span(F, ncols)
        for row in rows:
            span.add(row)
        greedy = [j for j in range(ncols)
                  if span.add([F.one if i == j else F.zero
                               for i in range(ncols)])]
        assert non_pivots(F, map(enumerate, rows), ncols) == greedy
        if rank(rows, ncols, F) == ncols:
            assert greedy == []


def dense_last_pivot_form(F, rows, ncols):
    """The reduced echelon form of the span of the dense rows with each row
    pivoted at its last nonzero entry, made independently of
    sparse_echelon: a span over the reversed columns, its rows turned back
    and scaled to 1 at their pivots, as {pivot: dense row} with the pivots
    in the order they first appear as the rows are added."""
    span = make_span(F, ncols)
    order = []
    for row in rows:
        if span.add(list(row)[::-1]):
            order += [ncols - 1 - q for q, _ in span.rows
                      if ncols - 1 - q not in order]
    back = {ncols - 1 - q: r[::-1] for q, r in span.rows}
    out = {}
    for q in order:
        inv = F.inv(back[q][q])
        out[q] = [F.mul(inv, x) for x in back[q]]
    return out


def _typed_rows(ech):
    return [(p, sorted((c, type(x), x) for c, x in row.items()))
            for p, row in ech.items()]


@pytest.mark.parametrize("p", [None, 2, 3, 2147483647],
                         ids=["QQ", "GF2", "GF3", "GFbig"])
def test_sparse_echelon_matches_dense_forms(p):
    """On random sparse row sets (Fraction entries over QQ, explicit zero
    entries among them), the empty set, all-zero rows, duplicated rows and
    full-rank sets: the first-pivot form gives kernel()'s vectors, as
    1 at each free column and -R_q[f] at each pivot q, normalised as
    kernel() does; the last-pivot form is a span's over the reversed
    columns, in the order its pivots first appear, with values and types
    alike.  One-shot enumerate iterators over the dense rows, explicit
    zeros and all, give both forms too."""
    F = PrimeField(p) if p else QQ
    rng = random.Random(32)

    def scalar():
        if p:
            return rng.choice([0, 1, rng.randrange(p)])
        return F.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def sparse_row(ncols):
        cols = rng.sample(range(ncols), rng.randint(0, min(ncols, 3)))
        return [(c, scalar()) for c in cols]

    cases = []
    for _ in range(80):
        ncols = rng.randint(1, 9)
        rows = [sparse_row(ncols) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            rows += rows[:rng.randint(1, len(rows))]
        cases.append((rows, ncols))
    for ncols in range(1, 7):
        cases.append(([], ncols))
        cases.append(([[], [(c, F.zero) for c in range(ncols)]], ncols))
        tri = [[(j, F.of(rng.randint(1, 5)) or F.one)]
               + [(c, scalar()) for c in range(j + 1, ncols)]
               for j in range(ncols)]
        rng.shuffle(tri)
        cases.append((tri + tri[:2], ncols))
    full = 0
    for rows, ncols in cases:
        dense = [[F.zero] * ncols for _ in rows]
        for vec, row in zip(dense, rows):
            for c, x in row:
                vec[c] = x
        first = sparse_echelon(F, rows)
        for q, row in first.items():
            assert min(row) == q and row[q] == F.one
        ker = []
        for f in range(ncols):
            if f in first:
                continue
            vec = [F.zero] * ncols
            vec[f] = F.one
            for q, row in first.items():
                if f in row:
                    vec[q] = F.neg(row[f])
            ker.append(tuple(vec) if p else primitive(vec))
        assert ker == kernel(dense, ncols, F)
        last = sparse_echelon(F, rows, last=True)
        for q, row in last.items():
            assert max(row) == q and row[q] == F.one
        want = {q: {c: x for c, x in enumerate(row) if x}
                for q, row in dense_last_pivot_form(F, dense, ncols).items()}
        assert _typed_rows(last) == _typed_rows(want)
        for form, kw in ((first, {}), (last, {"last": True})):
            again = sparse_echelon(F, map(enumerate, dense), **kw)
            assert _typed_rows(again) == _typed_rows(form)
        assert len(first) == len(last) == rank(dense, ncols, F)
        full += len(first) == ncols
    assert full


# sha256 of test_span_digests' record per field, frozen: any change of an
# echelon row, kernel vector or coefficient, or of its sign, scale or type,
# shows here
SPAN_DIGESTS = {
    "QQ": "0615fa316c3705a56eb708d4f13846c268716b685f7fea8fb10559fdcaa9509d",
    "GF7": "890a8236b062380e7e97701c74dce229202859a66a86a8768daab4bdd6bf1383",
    "GFbig":
        "ad6133199313a2bbad8c2a5862bbd549d0f79eec73c7a9e57790e743fbbfd52f",
}


@pytest.mark.parametrize("p", [None, 7, 2147483647],
                         ids=["QQ", "GF7", "GFbig"])
def test_span_digests(p):
    """The echelon rows, kernels, coords and membership answers on seeded
    random inputs are frozen bit for bit, scalar types included: over QQ
    the inputs hold Fractions and negative leading entries, so a change of
    sign or scale in any echelon row or kernel vector shows."""
    F = PrimeField(p) if p else QQ
    rng = random.Random(2024)

    def scalar():
        if p:
            return rng.choice([0, 0, 1, p - 1, rng.randrange(p)])
        return F.of(Fraction(rng.choice([0, 0, rng.randint(-9, 9)]),
                             rng.choice([1, 1, 2, 3, 4, 7])))

    record = []
    for _ in range(120):
        ncols = rng.randint(1, 7)
        rows = [[scalar() for _ in range(ncols)]
                for _ in range(rng.randint(0, ncols + 2))]
        span = make_span(F, ncols)
        added = [span.add(r) for r in rows]
        basis = span.basis_rows()
        members = [_combine(F, [scalar() for _ in basis], basis, ncols)
                   for _ in range(2)]
        probes = members + [[scalar() for _ in range(ncols)]
                            for _ in range(2)]
        record.append((ncols, added, span.dim, basis,
                       kernel(rows, ncols, F),
                       [span.contains(v) for v in probes],
                       [span.coords(v) for v in probes]))
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == SPAN_DIGESTS["GF7" if p == 7 else "GFbig" if p
                                  else "QQ"]


@pytest.mark.parametrize("p", [None, 7], ids=["QQ", "GF7"])
def test_span_rejects_vectors_of_the_wrong_length(p):
    span = SpanGF(3, p) if p else SpanQQ(3)
    span.add([1, 2, 0])
    for vec in ([1, 2], [1, 2, 0, 0], []):
        for method in (span.add, span.contains, span.coords):
            with pytest.raises(ValueError, match="length"):
                method(vec)
    assert span.basis_rows() == [(1, 2, 0)]


def _combine_reference(F, coeffs, rows, width):
    """sum_i coeffs[i] * rows[i] entry by entry, every product added."""
    out = []
    for j in range(width):
        acc = F.zero
        for c, row in zip(coeffs, rows):
            acc = F.add(acc, F.mul(c, row[j]))
        out.append(acc)
    return out


@pytest.mark.parametrize("p", [None, 2, 2147483647],
                         ids=["QQ", "GF2", "GF2^31-1"])
def test_combine_matches_reference(p):
    """combine against the plain entrywise sum over QQ and GF(p), values
    and types: over QQ an integral value is an int, and over GF(p) every
    entry is an int in [0, p).  Zero coefficients, zero rows and width 0
    are among the cases."""
    F = PrimeField(p) if p else QQ
    rng = random.Random(p or 0)
    # over GF(p) a fraction enters as its residue, so only odd denominators
    # are valid in GF(2)
    scalars = [0, 0, 1, -1, 2, 3, Fraction(1, 3), Fraction(-2, 3)]
    cases = [([], [], 0), ([1, 2], [[], []], 0), ([0, 0], [[1, 2], [3, 4]], 2),
             ([3, 5], [[0, 0, 0], [0, 0, 0]], 3),
             ([Fraction(1, 3), Fraction(2, 3)], [[1, 1], [1, 4]], 2)]
    for _ in range(200):
        width, n = rng.randint(0, 5), rng.randint(0, 4)
        rows = [[rng.choice(scalars) for _ in range(width)] for _ in range(n)]
        if rows and rng.random() < 0.3:
            rows[0] = [0] * width
        cases.append(([rng.choice(scalars) for _ in range(n)], rows, width))
    for coeffs, rows, width in cases:
        coeffs = [F.of(c) for c in coeffs]
        rows = [[F.of(x) for x in row] for row in rows]
        got = combine(F, coeffs, rows, width)
        want = _combine_reference(F, coeffs, rows, width)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        for x in got:
            if p:
                assert type(x) is int and 0 <= x < p
            elif x == int(x):
                assert type(x) is int
