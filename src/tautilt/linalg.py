"""Exact linear algebra over the rationals and GF(p).

Rationals arrive as the field elements of fields.Rationals: int when
integral, Fraction otherwise.  Rational vectors are handled as primitive
integer vectors (denominators cleared, content divided out); row scaling
never changes kernels, ranks or spans, so this loses nothing, and an
all-int vector is never converted at all.

Both fields share one elimination: a span (SpanQQ or SpanGF) keeps its rows
in reduced echelon form, and the kernel is read off those rows, one vector
per free column in ascending order.  The reduced echelon form is unique, so
the kernel basis does not depend on the order of the rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import Field, PrimeField


def _cleared(vec) -> tuple[list[int], int]:
    """(den * vec, den) for den the least common denominator of the
    rational entries; an all-int vector passes with den 1."""
    den = 1
    for x in vec:
        if type(x) is not int:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if den == 1:
        return [x if type(x) is int else int(x) for x in vec], 1
    return [x.numerator * (den // x.denominator) for x in vec], den


def primitive(row) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (first nonzero
    entry positive).  Zero rows come back as all-zero."""
    ints, _ = _cleared(row)
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    if g == 1:
        return tuple(ints)
    return tuple(v // g for v in ints)


def _content_reduce(vec: list[int]) -> list[int]:
    g = 0
    for v in vec:
        g = gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return [v // g for v in vec]
    return vec


class SpanQQ:
    """Row space over Q kept in fully reduced integer echelon form.

    add() reports whether the vector enlarged the span.  With track=True each
    echelon row also carries coefficients over the independent generators
    (the vectors whose add() returned True, in add order) plus a scale slot,
    so coords() can rewrite any member over those generators exactly.
    """

    def __init__(self, ncols: int, track: bool = False):
        self.ncols = ncols
        self.track = track
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, joint row)
        self.ngens = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce_joint(self, joint: list[int]) -> list[int]:
        for pivot, row in self.rows:
            if joint[pivot]:
                a, b = row[pivot], joint[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                joint = _content_reduce(
                    [ma * x - mb * y for x, y in zip(joint, row)])
        return joint

    def reduce(self, vec) -> tuple[int, ...]:
        """Exact residue of vec against the span, as a primitive direction."""
        ints = list(primitive(vec))
        if len(ints) != self.ncols:
            raise ValueError("vector length mismatch")
        if self.track:
            ints += [0] * (self.ngens + 1)
        out = self._reduce_joint(ints)[: self.ncols]
        return primitive(out)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        prim = list(primitive(vec))
        if not any(prim):
            return False
        joint = prim
        if self.track:
            # primitive = (num / den) * raw; record the factor on the new
            # generator slot so the invariant
            #   vector part == sum coeff_g * raw_gen_g
            # holds exactly
            j = next(i for i, v in enumerate(prim) if v)
            raw = vec[j]
            num, den = prim[j] * raw.denominator, raw.numerator
            g = gcd(num, den)
            if den < 0:
                g = -g
            num, den = num // g, den // g
            for _, row in self.rows:
                row.insert(len(row) - 1, 0)
            self.ngens += 1
            joint = ([v * den for v in prim]
                     + [0] * (self.ngens - 1) + [num, 0])
        joint = self._reduce_joint(joint)
        if not any(joint[: self.ncols]):
            if self.track:
                for _, row in self.rows:
                    del row[-2]
                self.ngens -= 1
            return False
        pivot = next(i for i, v in enumerate(joint[: self.ncols]) if v)
        updated = []
        for pv, row in self.rows:
            if row[pivot]:
                a, b = joint[pivot], row[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                row = _content_reduce(
                    [ma * x - mb * y for x, y in zip(row, joint)])
            updated.append((pv, row))
        updated.append((pivot, joint))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def coords(self, vec) -> list | None:
        """Coefficients of vec over the independent generators (rationals,
        int when integral), or None."""
        if not self.track:
            raise ValueError("span was built without coefficient tracking")
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        work, den = _cleared(vec)
        work = self._reduce_joint(work + [0] * self.ngens + [den])
        if any(work[: self.ncols]):
            return None
        s = work[-1]
        if s == 0:
            raise ArithmeticError("degenerate scale during reduction")
        return [-c // s if c % s == 0 else Fraction(-c, s)
                for c in work[self.ncols:-1]]

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [tuple(row[: self.ncols]) for _, row in self.rows]


class SpanGF:
    """Row space over GF(p); same interface as SpanQQ."""

    def __init__(self, ncols: int, p: int, track: bool = False):
        self.ncols = ncols
        self.p = p
        self.track = track
        self.rows: list[tuple[int, list[int]]] = []
        self.ngens = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce_joint(self, joint: list[int]) -> list[int]:
        p = self.p
        for pivot, row in self.rows:
            c = joint[pivot]
            if c:
                joint = [(x - c * y) % p for x, y in zip(joint, row)]
        return joint

    def reduce(self, vec) -> tuple[int, ...]:
        work = [int(x) % self.p for x in vec]
        if len(work) != self.ncols:
            raise ValueError("vector length mismatch")
        if self.track:
            work += [0] * (self.ngens + 1)
        return tuple(self._reduce_joint(work)[: self.ncols])

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        p = self.p
        work = [int(x) % p for x in vec]
        if len(work) != self.ncols:
            raise ValueError("vector length mismatch")
        if not any(work):
            return False
        if self.track:
            for _, row in self.rows:
                row.insert(len(row) - 1, 0)
            self.ngens += 1
            work += [0] * (self.ngens - 1) + [1, 0]
        work = self._reduce_joint(work)
        if not any(work[: self.ncols]):
            if self.track:
                for _, row in self.rows:
                    del row[-2]
                self.ngens -= 1
            return False
        pivot = next(i for i, v in enumerate(work[: self.ncols]) if v)
        inv = pow(work[pivot], p - 2, p)
        work = [(x * inv) % p for x in work]
        updated = []
        for pv, row in self.rows:
            c = row[pivot]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, work)]
            updated.append((pv, row))
        updated.append((pivot, work))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def coords(self, vec) -> list[int] | None:
        if not self.track:
            raise ValueError("span was built without coefficient tracking")
        p = self.p
        work = [int(x) % p for x in vec] + [0] * self.ngens + [1]
        work = self._reduce_joint(work)
        if any(work[: self.ncols]):
            return None
        s = work[-1]
        sinv = pow(s, p - 2, p)
        return [(-c * sinv) % p for c in work[self.ncols:-1]]

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [tuple(row[: self.ncols]) for _, row in self.rows]


def make_span(field: Field, ncols: int, track: bool = False):
    if isinstance(field, PrimeField):
        return SpanGF(ncols, field.p, track=track)
    return SpanQQ(ncols, track=track)


# ---------------------------------------------------------------------------
# nullspaces


def kernel_int_rows(rows: list, ncols: int) -> list[tuple[int, ...]]:
    """Exact rational kernel {v : r . v = 0 for every row r}.

    Fraction-free: the rows go into a SpanQQ, whose integer rows are in
    reduced echelon form, and the vector of each free column f is read off
    them (entry L at f, -row[f] * L / row[pivot] at each pivot, for L the
    least common multiple of the pivot entries involved).  Basis vectors are
    primitive, one per free column, free columns ascending.
    """
    span = SpanQQ(ncols)
    for r in rows:
        span.add(r)
    pivcols = {p for p, _ in span.rows}
    out = []
    for f in range(ncols):
        if f in pivcols:
            continue
        lcm = 1
        for p, row in span.rows:
            if row[f]:
                lcm = lcm * row[p] // gcd(lcm, row[p])
        vec = [0] * ncols
        vec[f] = lcm
        for p, row in span.rows:
            if row[f]:
                vec[p] = -row[f] * (lcm // row[p])
        out.append(primitive(vec))
    return out


def _kernel_gf(rows: list, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Kernel over GF(p) read off SpanGF's reduced echelon rows (pivot
    entries 1): one vector per free column, with entry 1 there."""
    span = SpanGF(ncols, p)
    for r in rows:
        span.add(r)
    pivcols = {c for c, _ in span.rows}
    out = []
    for f in range(ncols):
        if f in pivcols:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for c, row in span.rows:
            vec[c] = -row[f] % p
        out.append(tuple(vec))
    return out


def kernel(rows: list, ncols: int, field: Field) -> list[tuple[int, ...]]:
    """Kernel basis over the field, one vector per free column of the
    reduced echelon form, free columns ascending.  Each vector is zero at
    every other free column, and its free column is its last nonzero entry.
    Over Q rows may contain Fractions and the vectors are primitive integer
    vectors; over GF(p) the vectors have entries in [0, p) and a 1 at their
    free column."""
    if isinstance(field, PrimeField):
        return _kernel_gf(rows, ncols, field.p)
    return kernel_int_rows(rows, ncols)


def rank(rows: list, ncols: int, field: Field) -> int:
    span = make_span(field, ncols)
    for r in rows:
        span.add(r)
    return span.dim


def trace_radical(field: Field, mult, error) -> list[tuple]:
    """Kernel basis of the trace form tr(L_s L_t) of an associative unital
    algebra with basis e_0 .. e_{m-1}, given by mult[s][t], the
    coordinates of e_s e_t; L_s is left multiplication by e_s.  The kernel
    is the radical in characteristic 0 or above m, and the given error
    class is raised in any other characteristic."""
    m = len(mult)
    p = getattr(field, "p", None)
    if p is not None and p <= m:
        raise error(f"trace-form radical needs characteristic 0 or above "
                    f"the dimension {m}; got {p}")
    gram = []
    for s in range(m):
        row = []
        for t in range(m):
            tr = field.zero
            for a in range(m):
                for b in range(m):
                    tr = field.add(tr, field.mul(mult[s][b][a],
                                                 mult[t][a][b]))
            row.append(tr)
        gram.append(row)
    return kernel(gram, m, field)
