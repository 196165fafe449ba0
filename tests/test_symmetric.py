"""Exact symmetry test: FiniteDimAlgebra.is_symmetric and its socle.

Frozen answers over QQ on the fixed catalog keys: A1, A2, A4-A16 and
L1-L8 are symmetric; A3, L9, L10, exrs0-1, exrs0-2 and nakayama-2 are not.
Trivial extensions T(A) = A + D(A) are symmetric over any field.  A3 (a
star with the relation beta*alpha + delta*gamma + epsilon*xi) is
symmetric over GF(2) only, and so is preproj-D4, as preprojective
algebras of type D4 are symmetric exactly in characteristic 2.  L9, L10 and nakayama-2 stay non-symmetric
over GF(2).

Two checks share no code with the library's argument (socle lines and
the values of the symmetric functionals on them):

* a witness for a True answer: a symmetric functional whose Gram matrix
  f(b_i b_j) has full rank, found by trying combinations of the
  symmetric functionals, ranked by a standalone elimination;
* an exhaustive search for a False answer over a small prime field:
  every symmetric functional has a singular Gram matrix.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from tautilt import algebra, catalog, cli
from tautilt.algebra import AlgebraError, build_algebra
from tautilt.fields import QQ, PrimeField
from tautilt.linalg import kernel, make_span
from tautilt.quiver import Presentation, Quiver

SYMMETRIC = ["A1", "A2"] + [f"A{i}" for i in range(4, 17)] + \
    [f"L{i}" for i in range(1, 9)]
NOT_SYMMETRIC = ["A3", "L9", "L10", "exrs0-1", "exrs0-2", "nakayama-2"]


def _rank(rows, p=None):
    """Rank by plain Gauss-Jordan, over QQ (p None) or GF(p)."""
    if p is None:
        M = [[Fraction(c) for c in row] for row in rows]
    else:
        M = [[c % p for c in row] for row in rows]
    rank = 0
    width = len(M[0]) if M else 0
    for c in range(width):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = (1 / M[rank][c]) if p is None else pow(M[rank][c], p - 2, p)
        for i in range(rank + 1, len(M)):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
                if p is not None:
                    M[i] = [a % p for a in M[i]]
        rank += 1
    return rank


def _gram(A, f):
    """f(b_i b_j) over all basis pairs, read off the table."""
    return [[sum(s * f[m] for m, s in A.table.get((i, j), ()))
             for j in range(A.dim)] for i in range(A.dim)]


def _combine(A, coeffs, sols):
    return [sum(c * sol[m] for c, sol in zip(coeffs, sols))
            for m in range(A.dim)]


def _nondegenerate(A, f):
    p = A.field.p if isinstance(A.field, PrimeField) else None
    return _rank(_gram(A, f), p) == A.dim


def _witness(A, tries=30):
    """A symmetric functional with a nondegenerate pairing, or None: the
    all-ones combination first, then seeded random ones."""
    sols = A.symmetric_functionals()
    rng = random.Random(20261018)
    pool = list(range(A.field.p)) if isinstance(A.field, PrimeField) \
        else list(range(-20, 21))
    for t in range(tries):
        coeffs = [1] * len(sols) if t == 0 else \
            [rng.choice(pool) for _ in sols]
        f = _combine(A, coeffs, sols)
        if _nondegenerate(A, f):
            return f
    return None


def _symmetric_functional_exists(A):
    """Exhaustive over GF(p): some symmetric functional is nondegenerate."""
    p = A.field.p
    sols = A.symmetric_functionals()
    return any(_nondegenerate(A, [c % p for c in _combine(A, co, sols)])
               for co in itertools.product(range(p), repeat=len(sols)))


def semisimple(n, field):
    """k x ... x k: n vertices, no arrows."""
    return build_algebra(Presentation(Quiver(list(range(1, n + 1)), []), []),
                         field)


# -- frozen answers ---------------------------------------------------------


@pytest.mark.parametrize("key", SYMMETRIC + NOT_SYMMETRIC)
def test_qq_answers(key):
    assert catalog.build(key).is_symmetric() == (key in SYMMETRIC)


@pytest.mark.parametrize("key", ["A3", "L10", "preproj-A4"])
def test_trivial_extension_is_symmetric(key):
    T = catalog.build(key).trivial_extension()
    assert T.is_symmetric()


@pytest.mark.parametrize("field, want", [
    (QQ, False), (PrimeField(2), True), (PrimeField(3), False),
    (PrimeField(5), False)])
def test_a3_symmetric_in_characteristic_two_only(field, want):
    assert catalog.build("A3", field=field).is_symmetric() is want


@pytest.mark.parametrize("key", ["L9", "L10", "nakayama-2"])
def test_not_symmetric_over_gf2(key):
    assert not catalog.build(key, field=PrimeField(2)).is_symmetric()


# -- witnesses and exhaustive negatives ---------------------------------------


@pytest.mark.parametrize("key, field", [
    ("A1", QQ), ("A4", QQ), ("A5", QQ), ("A9", QQ), ("L1", QQ), ("L5", QQ),
    ("A3", PrimeField(2)), ("A4", PrimeField(3)), ("L2", PrimeField(5)),
    ("preproj-D4", PrimeField(2))])
def test_true_answer_has_a_witness(key, field):
    A = catalog.build(key, field=field)
    assert A.is_symmetric()
    assert _witness(A) is not None


def test_trivial_extension_witness():
    T = catalog.build("A3").trivial_extension()
    assert T.is_symmetric() and _witness(T) is not None


@pytest.mark.parametrize("key, p", [
    ("A3", 3), ("L9", 2), ("L10", 2), ("nakayama-2", 2), ("nakayama-2", 3),
    ("preproj-D4", 3)])
def test_false_answer_is_exhaustive(key, p):
    A = catalog.build(key, field=PrimeField(p))
    assert not A.is_symmetric()
    assert not _symmetric_functional_exists(A)


# -- the search over GF(p) ----------------------------------------------------


def test_search_branch_over_gf2():
    """k^3 over GF(2): the symmetric functionals are all of A*, the three
    socle lines are the idempotents, and their coordinates are three
    distinct hyperplanes, more than p = 2; so the answer needs the search,
    which a search limit of 0 turns into an error."""
    A = semisimple(3, PrimeField(2))
    assert A.is_symmetric()
    assert _witness(A) is not None
    assert semisimple(2, PrimeField(2)).is_symmetric()


def test_search_limit_raises(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(algebra, "SYMMETRY_SEARCH_LIMIT", 0)
    with pytest.raises(AlgebraError, match="undecided"):
        semisimple(3, PrimeField(2)).is_symmetric()
    # two hyperplanes over GF(2) need no search
    assert semisimple(2, PrimeField(2)).is_symmetric()
    assert catalog.build("A3", field=PrimeField(2)).is_symmetric()
    path = tmp_path / "k3.alg"
    path.write_text("vertices = [1, 2, 3]\n")
    assert cli.main(["check", str(path), "--field", "gf(2)",
                     "--property", "symmetric"]) == 2
    assert "undecided" in capsys.readouterr().err


# -- the socle and its block convention ---------------------------------------


def _socle_oracle(A):
    """{x : x r = 0 for every radical basis element r}, all dim unknowns."""
    F = A.field
    rows = []
    for r in range(A.n, A.dim):
        prods = [A.mul({k: F.one}, {r: F.one}) for k in range(A.dim)]
        for m in range(A.dim):
            row = [q.get(m, F.zero) for q in prods]
            if any(not F.is_zero(c) for c in row):
                rows.append(row)
    return kernel(rows, A.dim, F)


@pytest.mark.parametrize("key", ["A3", "A4", "L10", "nakayama-2", "exrs0-1",
                                 "preproj-A3", "preproj-D4"])
def test_socle_spans_the_oracle(key):
    A = catalog.build(key)
    got = A.socle_basis()
    want = _socle_oracle(A)
    span = make_span(A.field, A.dim)
    for v in want:
        span.add(v)
    assert len(got) == len(want)
    for x in got:
        assert span.contains(A.as_vector(x))


@pytest.mark.parametrize("key", ["A4", "L10", "preproj-A3"])
def test_socle_block_convention(key):
    """Each socle element x lies in one block (i, j) = (src, tgt) with
    e_i x = x = x e_j, so U_v = {x in soc : x e_v = x} is the set of
    socle blocks (i, v)."""
    A = catalog.build(key)
    for x in A.socle_basis():
        (i,) = {A.src[k] for k in x}
        (j,) = {A.tgt[k] for k in x}
        assert A.mul(A.e(i), x) == x == A.mul(x, A.e(j))


def test_socle_side_matters():
    """preproj-A3 is self-injective with Nakayama permutation 1 <-> 3: the
    socle of e_1 A sits in the block (1, 3).  So the socle element with
    x e_1 = x is not the one with e_1 x = x."""
    A = catalog.build("preproj-A3")
    v1, v3 = A.vertex_labels.index(1), A.vertex_labels.index(3)
    blocks = sorted({(A.src[next(iter(x))], A.tgt[next(iter(x))])
                     for x in A.socle_basis()})
    assert (v1, v3) in blocks and (v3, v1) in blocks
    assert (v1, v1) not in blocks
