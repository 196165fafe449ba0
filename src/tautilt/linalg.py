"""Exact linear algebra over the rationals and GF(p).

Rationals arrive as the field elements of fields.Rationals: int when
integral, Fraction otherwise.  Rational vectors are handled as primitive
integer vectors (denominators cleared, content divided out); row scaling
never changes kernels, ranks or spans, so this loses nothing, and an
all-int vector is never converted at all.

Both fields share one elimination: a span keeps its rows in reduced echelon
form, and the kernel is read off those rows, one vector per free column in
ascending order.  SpanQQ and SpanGF differ only in the row step that clears
a pivot entry: over Q a gcd cross-multiplication followed by dividing out
the content, over GF(p) subtracting a multiple of a row whose pivot entry
is 1.  The reduced echelon form is unique, so the kernel basis does not
depend on the order of the rows.  Each echelon row is the only one nonzero
at its pivot, so a member's coordinates over the rows are read at the
pivots (coords); no span tracks coefficients.

sparse_echelon makes the same reduced echelon form from sparse rows, with
each row pivoted at its first nonzero entry or, with last set, at its last.
The last-pivot form's non-pivot columns (non_pivots) are the unit vectors
that extend a basis of the span greedily in column order, which is how
quotients (HomK modulo homotopy, algebra and module quotients) pick their
surviving coordinates and read the residues of vectors there.  The same
columns are the top of a module, the reps a minimal approximation keeps,
the arrows of an algebra without words and the H^0 dimension vector of a
complex.  A dense row enters as enumerate(row).

combine forms every sum of scaled rows c_0 row_0 + c_1 row_1 + ...: the
products of module action matrices, combinations of basis vectors, and
kernel vectors spelled out over the vectors they combine.
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


class _Span:
    """Row space kept in fully reduced echelon form: each row is pivoted at
    its first nonzero entry and is the only row nonzero at that pivot.
    A field supplies _enter (a vector as a list of ints), _step (u with
    its entry at pivot cleared by the row v), _scaled (a new row) and
    _coeff (a member's coefficient on a row, from the two pivot entries).
    add() reports whether the vector enlarged the span.  Each field class
    binds add and coords in its own body, where the layer tracer of
    perfbench/layertrace.py finds and wraps them."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, vec) -> list[int]:
        work = self._enter(vec)
        if len(work) != self.ncols:
            raise ValueError("vector length mismatch")
        step = self._step
        for pivot, row in self.rows:
            if work[pivot]:
                work = step(work, row, pivot)
        return work

    def contains(self, vec) -> bool:
        return not any(self._residue(vec))

    def add(self, vec) -> bool:
        work = self._residue(vec)
        for pivot, x in enumerate(work):
            if x:
                break
        else:
            return False
        work = self._scaled(work, pivot)
        step = self._step
        rows = [(pv, step(row, work, pivot) if row[pivot] else row)
                for pv, row in self.rows]
        rows.append((pivot, work))
        rows.sort()  # by pivot: no two rows share one
        self.rows = rows
        return True

    def coords(self, vec) -> list | None:
        """Coefficients of vec over basis_rows(), or None when vec lies
        outside the span.  Each row is the only one nonzero at its pivot,
        so a member's coefficient on it is vec[pivot] / row[pivot]."""
        if not self.contains(vec):
            return None
        coeff = self._coeff
        return [coeff(vec[pivot], row[pivot]) for pivot, row in self.rows]

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [tuple(row) for _, row in self.rows]


class SpanQQ(_Span):
    """Row space over Q: each echelon row is an integer vector with no
    common factor, made by fraction-free elimination.  Coefficients are
    rationals, int when integral."""

    add = _Span.add
    coords = _Span.coords

    @staticmethod
    def _enter(vec) -> list[int]:
        return list(primitive(vec))

    @staticmethod
    def _step(u: list[int], v: list[int], pivot: int) -> list[int]:
        g = gcd(v[pivot], u[pivot])
        ma, mb = v[pivot] // g, u[pivot] // g
        w = [ma * x - mb * y for x, y in zip(u, v)]
        g = gcd(*w)
        return [x // g for x in w] if g > 1 else w

    @staticmethod
    def _scaled(work: list[int], pivot: int) -> list[int]:
        return work

    @staticmethod
    def _coeff(x, d: int):
        q = Fraction(x, d)
        return q.numerator if q.denominator == 1 else q


class SpanGF(_Span):
    """Row space over GF(p), entries in [0, p), every pivot entry 1."""

    add = _Span.add
    coords = _Span.coords

    def __init__(self, ncols: int, p: int):
        super().__init__(ncols)
        self.p = p

    def _enter(self, vec) -> list[int]:
        p = self.p
        return [x % p for x in vec]

    def _step(self, u: list[int], v: list[int], pivot: int) -> list[int]:
        p, c = self.p, u[pivot]
        return [(x - c * y) % p for x, y in zip(u, v)]

    def _scaled(self, work: list[int], pivot: int) -> list[int]:
        if work[pivot] == 1:
            return work
        p = self.p
        inv = pow(work[pivot], -1, p)
        return [(x * inv) % p for x in work]

    def _coeff(self, x, d: int) -> int:
        return x % self.p


def make_span(field: Field, ncols: int):
    if isinstance(field, PrimeField):
        return SpanGF(ncols, field.p)
    return SpanQQ(ncols)


def sparse_echelon(F: Field, rows, last: bool = False) -> dict:
    """The reduced echelon form of the span of the given sparse rows, each
    (column, entry) pairs with distinct columns, with each row pivoted at
    its first nonzero entry (at its last when last is set) and scaled to 1
    there, as {pivot: {column: nonzero entry}}.  Both forms are unique:
    the first-pivot one is the form kernel() reads its vectors off.  A
    vector v is reduced against the last-pivot one by subtracting v[k] R_k
    for each pivot k; the residue is zero at every pivot, and it is zero
    exactly when v lies in the span."""
    ech = {}
    pick = max if last else min
    for ents in rows:
        row = {c: x for c, x in ents if x}
        # an echelon row is zero at every other pivot, so one pass over the
        # row's pivot columns clears them all
        for p in [c for c in row if c in ech]:
            _sub_scaled(F, row, row[p], ech[p])
        if not row:
            continue
        p = pick(row)
        if row[p] != F.one:
            inv = F.inv(row[p])
            row = {c: F.mul(inv, x) for c, x in row.items()}
        for r in ech.values():
            if p in r:
                _sub_scaled(F, r, r[p], row)
        ech[p] = row
    return ech


def non_pivots(F: Field, rows, ncols: int) -> list[int]:
    """The unit vectors among the first ncols that extend the span of the
    given sparse rows, in order: the columns that are not last pivots of
    its echelon form."""
    pivots = sparse_echelon(F, rows, last=True)
    return [j for j in range(ncols) if j not in pivots]


def combine(F: Field, coeffs, rows, width: int) -> list:
    """sum_i coeffs[i] * rows[i], a list of width entries; zero
    coefficients and zero entries add nothing."""
    out = [F.zero] * width
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = F.add(out[j], F.mul(c, x))
    return out


def _sub_scaled(F: Field, row: dict, c, other: dict) -> None:
    """row -= c * other, for sparse rows; zero entries are dropped."""
    for col, y in other.items():
        x = F.sub(row.get(col, F.zero), F.mul(c, y))
        if x:
            row[col] = x
        else:
            del row[col]


# ---------------------------------------------------------------------------
# nullspaces


def kernel(rows: list, ncols: int, field: Field) -> list[tuple[int, ...]]:
    """Kernel basis over the field, one vector per free column of the
    reduced echelon form, free columns ascending.  The vector of a free
    column f has entry L at f and -row[f] * L / row[pivot] at each pivot,
    for L a common multiple of those pivot entries (1 over GF(p), where
    they are 1).  Each vector is zero at every other free column, and its
    free column is its last nonzero entry.  Over Q rows may contain
    Fractions and the vectors are primitive integer vectors; over GF(p)
    the vectors have entries in [0, p) and a 1 at their free column."""
    span = make_span(field, ncols)
    for r in rows:
        span.add(r)
    pivcols = {p for p, _ in span.rows}
    out = []
    for f in range(ncols):
        if f in pivcols:
            continue
        lcm = 1
        for p, row in span.rows:
            if row[f] and lcm % row[p]:
                lcm = lcm * row[p] // gcd(lcm, row[p])
        vec = [0] * ncols
        vec[f] = lcm
        for p, row in span.rows:
            if row[f]:
                vec[p] = -row[f] * (lcm // row[p])
        # made primitive over Q, reduced mod p over GF(p)
        out.append(tuple(span._enter(vec)))
    return out


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
