"""Exact linear algebra over the rationals and GF(p).

Rationals arrive as the field elements of fields.Rationals: int when
integral, Fraction otherwise.  Rational vectors are handled as primitive
integer vectors (denominators cleared, content divided out); row scaling
never changes kernels, ranks or spans, so this loses nothing, and an
all-int vector is never converted at all.

Both fields share one elimination: a span (SpanQQ or SpanGF) keeps its rows
in reduced echelon form, and the kernel is read off those rows, one vector
per free column in ascending order.  The reduced echelon form is unique, so
the kernel basis does not depend on the order of the rows.  Each echelon
row is the only one nonzero at its pivot, so a member's coordinates over
the rows are read at the pivots (coords); no span tracks coefficients.

last_pivot_rows is the same reduced echelon form with each row pivoted at
its last nonzero entry.  Its non-pivot columns are the unit vectors that
extend a basis of the span greedily in column order, which is how quotients
(HomK modulo homotopy, algebra and module quotients) pick their surviving
coordinates and read the residues of vectors there.  The same columns are
the top of a module, the reps a minimal approximation keeps, the arrows of
an algebra without words and the H^0 dimension vector of a complex.
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
    """Row space over Q kept in fully reduced integer echelon form: each
    row is a primitive integer vector pivoted at its first nonzero entry,
    and it is the only row nonzero at that pivot.  add() reports whether
    the vector enlarged the span."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, work: list[int]) -> list[int]:
        for pivot, row in self.rows:
            if work[pivot]:
                a, b = row[pivot], work[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                work = _content_reduce(
                    [ma * x - mb * y for x, y in zip(work, row)])
        return work

    def reduce(self, vec) -> tuple[int, ...]:
        """Exact residue of vec against the span, as a primitive direction."""
        ints = list(primitive(vec))
        if len(ints) != self.ncols:
            raise ValueError("vector length mismatch")
        return primitive(self._reduce(ints))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        work = list(primitive(vec))
        if not any(work):
            return False
        work = self._reduce(work)
        if not any(work):
            return False
        pivot = next(i for i, v in enumerate(work) if v)
        updated = []
        for pv, row in self.rows:
            if row[pivot]:
                a, b = work[pivot], row[pivot]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                row = _content_reduce(
                    [ma * x - mb * y for x, y in zip(row, work)])
            updated.append((pv, row))
        updated.append((pivot, work))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def coords(self, vec) -> list | None:
        """Coefficients of vec over basis_rows() (rationals, int when
        integral), or None when vec lies outside the span.  Each row is the
        only one nonzero at its pivot, so a member's coefficient on it is
        vec[pivot] / row[pivot]."""
        if not self.contains(vec):
            return None
        out = []
        for pivot, row in self.rows:
            q = Fraction(vec[pivot], row[pivot])
            out.append(q.numerator if q.denominator == 1 else q)
        return out

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [tuple(row) for _, row in self.rows]


class SpanGF:
    """Row space over GF(p); same interface as SpanQQ, with every pivot
    entry scaled to 1."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.rows: list[tuple[int, list[int]]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, work: list[int]) -> list[int]:
        p = self.p
        for pivot, row in self.rows:
            c = work[pivot]
            if c:
                work = [(x - c * y) % p for x, y in zip(work, row)]
        return work

    def reduce(self, vec) -> tuple[int, ...]:
        work = [int(x) % self.p for x in vec]
        if len(work) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(self._reduce(work))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        p = self.p
        work = [int(x) % p for x in vec]
        if len(work) != self.ncols:
            raise ValueError("vector length mismatch")
        if not any(work):
            return False
        work = self._reduce(work)
        if not any(work):
            return False
        pivot = next(i for i, v in enumerate(work) if v)
        inv = pow(work[pivot], -1, p)
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
        """Coefficients of vec over basis_rows(), or None when vec lies
        outside the span: vec[pivot] on each row, whose pivot entry is 1."""
        if not self.contains(vec):
            return None
        p = self.p
        return [int(vec[pivot]) % p for pivot, _ in self.rows]

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [tuple(row) for _, row in self.rows]


def make_span(field: Field, ncols: int):
    if isinstance(field, PrimeField):
        return SpanGF(ncols, field.p)
    return SpanQQ(ncols)


def last_pivot_rows(F: Field, rows) -> dict:
    """The reduced echelon form of the span of the given rows of field
    elements, with each row pivoted at its last nonzero entry and scaled
    to 1 there, as {pivot: row}.  A vector v is reduced against it by
    subtracting v[k] R_k for each pivot k; the residue is zero at every
    pivot, and it is zero exactly when v lies in the span."""
    ech = {}
    for row in rows:
        for p, r in ech.items():
            c = row[p]
            if c:
                row = [F.sub(x, F.mul(c, y)) for x, y in zip(row, r)]
        p = next((j for j in range(len(row) - 1, -1, -1) if row[j]), None)
        if p is None:
            continue
        inv = F.inv(row[p])
        row = [F.mul(inv, x) for x in row]
        for q, r in ech.items():
            c = r[p]
            if c:
                ech[q] = [F.sub(x, F.mul(c, y)) for x, y in zip(r, row)]
        ech[p] = row
        if len(ech) == len(row):
            break
    return ech


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
