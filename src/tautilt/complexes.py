"""Two-term complexes of projectives and their mutation.

A complex P^{-1} -> P^0 is stored as two lists of vertex labels (one
indecomposable projective summand per entry) plus the differential, a
matrix over the algebra: entry (i, j) lies in the block
e_{zero_i} A e_{neg_j} and acts by left multiplication as a map of right
modules e_{neg_j}A -> e_{zero_i}A.

Morphism spaces in the homotopy category are read off one Hom complex
Hom^-1 -> Hom^0 -> Hom^1 per pair (X, Y), whose two differentials are
filled by composing with d_X and d_Y: H^0 is HomK, the chain maps
ker d^0 modulo the null-homotopic maps im d^-1, and H^1 and H^-1 are
Hom(X, Y[1]) and Hom(X, Y[-1]); a two-term complex is presilting exactly
when H^1 of its Hom complex with itself vanishes.  Mutation at a
summand takes a minimal approximation by the remaining summands, forms
the cone (or the cocone when the cone fails to be two-term), and strips
contractible pairs until every differential entry is radical.  Summands
are interned by g-vector in a SummandTable, which also holds, keyed by
the canonical complexes themselves, the HomK spaces and End radicals
mutation needs and, per triple (S, M, T), the span of the maps S -> T
that factor through M, in the quotient coordinates of HomK(S, T).  Equal
spans are one object, and the components an approximation keeps are
looked up by HomK dimension and the set of spans, so an approximation
reads a few dicts instead of composing chain maps or eliminating rows
again.  No span tracks coefficients: the only elimination over HomK's chain
vectors is the kernel of d^0, whose vectors are read as coordinates at
their free columns, and the homotopy vectors are eliminated in those few
coordinates.  Chain maps are composed from their sparse terms, which each
HomK keeps for its reps.  A mutation result is read off the reduced slot
lists first, and a complex is built only for a g-vector the table does
not hold yet.
"""
from __future__ import annotations

from functools import partial
from itertools import product

from .algebra import FiniteDimAlgebra
from .linalg import (kernel, last_pivot_rows, make_span, rank,
                     trace_radical)


class ComplexError(ValueError):
    pass


class _HomIndex:
    """k-linear coordinates on Hom_A(+ e_{s_j}A, + e_{t_i}A), whose basis
    is triples (target slot i, source slot j, basis element of the block
    e_{t_i} A e_{s_j})."""

    def __init__(self, A: FiniteDimAlgebra, src_idx, tgt_idx):
        self.A = A
        self.src_idx = list(src_idx)
        self.tgt_idx = list(tgt_idx)
        self.triples = []
        for i, t in enumerate(self.tgt_idx):
            for j, s in enumerate(self.src_idx):
                for k in A.blocks.get((t, s), ()):
                    self.triples.append((i, j, k))
        self.pos = {trip: m for m, trip in enumerate(self.triples)}
        self.dim = len(self.triples)

    def terms(self, vec) -> tuple:
        """The nonzero coordinates of vec as terms (i, j, k, c)."""
        F = self.A.field
        return tuple((i, j, k, c) for (i, j, k), c in zip(self.triples, vec)
                     if not F.is_zero(c))

    def matrix(self, terms):
        """The matrix over the algebra with the given terms."""
        mat = [[{} for _ in self.src_idx] for _ in self.tgt_idx]
        for i, j, k, c in terms:
            mat[i][j][k] = c
        return mat


def _g_vector(n: int, neg_idx, zero_idx) -> tuple:
    """g-vector of the slots: +1 per degree 0 slot, -1 per degree -1 slot."""
    g = [0] * n
    for v in zero_idx:
        g[v] += 1
    for v in neg_idx:
        g[v] -= 1
    return tuple(g)


class TwoTermComplex:
    def __init__(self, A: FiniteDimAlgebra, neg, zero, d):
        self.A = A
        self.neg = list(neg)          # vertex labels of the degree -1 part
        self.zero = list(zero)        # vertex labels of the degree 0 part
        self.d = [[dict(e) for e in row] for row in d]
        self.neg_idx = [A.vertex_labels.index(v) for v in self.neg]
        self.zero_idx = [A.vertex_labels.index(v) for v in self.zero]
        self._g = None
        self._h0dv = None

    @classmethod
    def stalk(cls, A, label) -> "TwoTermComplex":
        """The projective at the given vertex, in degree 0."""
        return cls(A, [], [label], [[]])

    @classmethod
    def shifted(cls, A, label) -> "TwoTermComplex":
        """The projective at the given vertex, in degree -1."""
        return cls(A, [label], [], [])

    def validate(self) -> None:
        A = self.A
        if len(self.d) != len(self.zero):
            raise ComplexError("differential has the wrong number of rows")
        for i, row in enumerate(self.d):
            if len(row) != len(self.neg):
                raise ComplexError(
                    "differential has the wrong number of columns")
            for j, ent in enumerate(row):
                for k, c in ent.items():
                    if A.src[k] != self.zero_idx[i] \
                            or A.tgt[k] != self.neg_idx[j]:
                        raise ComplexError(
                            f"entry ({i}, {j}) leaves its block")
                    if A.field.is_zero(c):
                        raise ComplexError("zero coefficient stored")

    def g_vector(self) -> tuple:
        if self._g is None:
            self._g = _g_vector(self.A.n, self.neg_idx, self.zero_idx)
        return self._g

    def _image_rows(self):
        """Images of the degree -1 basis inside the degree 0 projective,
        in the concatenated block-basis coordinates of the latter."""
        A = self.A
        F = A.field
        pbasis = []          # (slot, algebra basis index) per coordinate
        offset = {}
        for i, t in enumerate(self.zero_idx):
            offset[i] = len(pbasis)
            pbasis.extend((i, k) for k in range(A.dim) if A.src[k] == t)
        pos = {ik: m for m, ik in enumerate(pbasis)}
        rows = []
        for j, s in enumerate(self.neg_idx):
            for k0 in (k for k in range(A.dim) if A.src[k] == s):
                vec = [F.zero] * len(pbasis)
                nonzero = False
                for i in range(len(self.zero_idx)):
                    ent = self.d[i][j]
                    if not ent:
                        continue
                    for m, c in A.mul(ent, {k0: F.one}).items():
                        vec[pos[(i, m)]] = c
                        nonzero = True
                if nonzero:
                    rows.append(vec)
        return pbasis, rows

    def h0_dim_vector(self) -> list[int]:
        if self._h0dv is not None:
            return list(self._h0dv)
        A = self.A
        pbasis, rows = self._image_rows()
        # H^0 lives on the coordinates that are not last pivots of the
        # image, as in h0_module's quotient
        pivots = last_pivot_rows(A.field, rows)
        dims = [0] * A.n
        for m, (_, k) in enumerate(pbasis):
            if m not in pivots:
                dims[A.tgt[k]] += 1
        self._h0dv = tuple(dims)
        return dims

    def h0_dims(self) -> tuple:
        """h0_dim_vector() as a tuple, computed by it on first use and
        then shared rather than copied."""
        if self._h0dv is None:
            self.h0_dim_vector()
        return self._h0dv

    def h0_module(self):
        from .modules import Module
        A = self.A
        if not self.zero:
            return Module.zero(A)
        P0 = Module.direct_sum([Module.projective(A, v) for v in self.zero])
        _, rows = self._image_rows()
        if not rows:
            return P0
        return P0.quotient(rows)

    def __repr__(self):
        return (f"TwoTermComplex(neg={self.neg}, zero={self.zero}, "
                f"g={self.g_vector()})")


# -- morphism spaces in the homotopy category -------------------------------


def _precompose(d, src: _HomIndex, tgt: _HomIndex) -> list:
    """h -> h d from src = Hom(P^0, W) to tgt = Hom(P^-1, W), where d is
    the differential of a complex P: per triple of src, the nonzero
    coordinates of its image as (position in tgt, coefficient) pairs."""
    A = src.A
    one = A.field.one
    pos = tgt.pos
    out = []
    for i, t, k in src.triples:
        ents = []
        for j, ent in enumerate(d[t]):
            if ent:
                for m, c in A.mul({k: one}, ent).items():
                    ents.append((pos[(i, j, m)], c))
        out.append(ents)
    return out


def _postcompose(d, src: _HomIndex, tgt: _HomIndex) -> list:
    """h -> d h from src = Hom(V, Q^-1) to tgt = Hom(V, Q^0), where d is
    the differential of a complex Q, in the form of _precompose."""
    A = src.A
    one = A.field.one
    pos = tgt.pos
    out = []
    for t, j, k in src.triples:
        ents = []
        for i, row in enumerate(d):
            if row[t]:
                for m, c in A.mul(row[t], {k: one}).items():
                    ents.append((pos[(i, j, m)], c))
        out.append(ents)
    return out


def _hom_dminus(X: TwoTermComplex, Y: TwoTermComplex, hn: _HomIndex,
                h0: _HomIndex, hm: _HomIndex) -> list:
    """d^-1 of the Hom complex of X and Y, from Hom^-1 = Hom(X^0, Y^-1)
    (index hn) to the chain vectors Hom^0 = Hom(X^0, Y^0) ++
    Hom(X^-1, Y^-1) (indices h0 and hm): d^-1 h = (d_Y h, h d_X).  Returns
    its nonzero columns, in the triple order of hn, each as the
    (chain coordinate, entry) pairs of its nonzero entries."""
    off = h0.dim
    return [post + [(off + r, c) for r, c in pre]
            for post, pre in zip(_postcompose(Y.d, hn, h0),
                                 _precompose(X.d, hn, hm))
            if post or pre]


def _hom_dzero(X: TwoTermComplex, Y: TwoTermComplex, h0: _HomIndex,
               hm: _HomIndex, h1: _HomIndex) -> list:
    """d^0 of the Hom complex of X and Y, from the chain vectors (indices
    h0 and hm) to Hom^1 = Hom(X^-1, Y^0) (index h1):
    d^0 (f^0, f^-1) = d_Y f^-1 - f^0 d_X.  Returns one row per coordinate
    of Hom^1, as the (chain coordinate, entry) pairs of its nonzero
    entries."""
    neg = X.A.field.neg
    rows = [[] for _ in range(h1.dim)]
    for col, ents in enumerate(_precompose(X.d, h0, h1)):
        for r, c in ents:
            rows[r].append((col, neg(c)))
    for col, ents in enumerate(_postcompose(Y.d, hm, h1), h0.dim):
        for r, c in ents:
            rows[r].append((col, c))
    return rows


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


class HomK:
    """Hom between two-term complexes modulo homotopy: H^0 of their Hom
    complex, the chain maps ker d^0 (_hom_dzero) modulo the null-homotopic
    maps im d^-1 (_hom_dminus).  Chain maps are vectors over the
    coordinates of Hom(X^0, Y^0) ++ Hom(X^-1, Y^-1).

    No span tracks coefficients.  The kernel of d^0 is the only elimination
    over the chain vectors: its vector k_j is nonzero at its free column
    f_j, its last nonzero entry, and zero at every other free column, so a
    chain map v is sum_j (v[f_j] / k_j[f_j]) k_j.  The homotopy vectors
    read at the free columns span a subspace of those coordinates.  Its
    echelon form with each row pivoted at its last nonzero entry
    (last_pivot_rows) has a pivot at j exactly when k_j lies in the span of
    the homotopy vectors and k_0 .. k_{j-1}; reps are the other k_j, in
    order.  coords() is a fixed sparse map from the free-column entries of
    a chain map to the reps.  index(src_idx, tgt_idx) gives the _HomIndex
    of two slot lists; a SummandTable passes one that shares them between
    its HomKs."""

    def __init__(self, X: TwoTermComplex, Y: TwoTermComplex, index=None):
        F = X.A.field
        if index is None:
            index = partial(_HomIndex, X.A)
        self.X, self.Y = X, Y
        self.h0 = h0 = index(X.zero_idx, Y.zero_idx)
        self.hm = hm = index(X.neg_idx, Y.neg_idx)
        nv = h0.dim + hm.dim
        self._d0 = _hom_dzero(X, Y, h0, hm, index(X.neg_idx, Y.zero_idx))
        chain_basis = kernel(_dense(self._d0, nv, F), nv, F)
        # f_j, the last nonzero entry of k_j, as its free column
        free = [next(c for c in range(nv - 1, -1, -1) if vec[c])
                for vec in chain_basis]
        # the homotopy vectors at the free columns, w_j = h[f_j]: scaling
        # column j by k_j[f_j] moves no pivot
        slot = {f: j for j, f in enumerate(free)}
        rows = []
        if free:
            for ents in _hom_dminus(X, Y, index(X.zero_idx, Y.neg_idx),
                                    h0, hm):
                row = [F.zero] * len(free)
                for c, x in ents:
                    j = slot.get(c)
                    if j is not None:
                        row[j] = x
                rows.append(row)
        pivots = last_pivot_rows(F, rows)
        keep = [j for j in range(len(free)) if j not in pivots]
        self.reps = [list(chain_basis[j]) for j in keep]
        self.dim = len(self.reps)
        # rep r of the class of v is (w_r - sum_p w_p R_p[r]) / k_r[f_r],
        # for w_j = v[f_j] and R_p the echelon row pivoted at p
        self._coords = []
        for r in keep:
            s = F.inv(chain_basis[r][free[r]])
            terms = [(free[r], s)]
            for p, row in pivots.items():
                if row[r]:
                    terms.append((free[p], F.neg(F.mul(row[r], s))))
            self._coords.append(tuple(terms))
        self._split_reps = None

    def null_homotopic(self) -> list:
        """Chain vectors spanning the null-homotopic maps: (d_Y h, h d_X),
        one per basis map h: X^0 -> Y^-1 that gives a nonzero vector."""
        X, Y = self.X, self.Y
        hn = _HomIndex(X.A, X.zero_idx, Y.neg_idx)
        return _dense(_hom_dminus(X, Y, hn, self.h0, self.hm),
                      self.h0.dim + self.hm.dim, X.A.field)

    def coords(self, chain_vec) -> list:
        """Coefficients of a chain map's class over the reps basis."""
        F = self.X.A.field
        if len(chain_vec) != self.h0.dim + self.hm.dim:
            raise ComplexError("vector is not a chain map")
        for ents in self._d0:
            acc = F.zero
            for c, x in ents:
                y = chain_vec[c]
                if y:
                    acc = F.add(acc, F.mul(x, y))
            if acc:
                raise ComplexError("vector is not a chain map")
        out = []
        for terms in self._coords:
            acc = F.zero
            for f, c in terms:
                y = chain_vec[f]
                if y:
                    acc = F.add(acc, F.mul(c, y))
            out.append(acc)
        return out

    def split(self, chain_vec) -> tuple:
        """A chain map as its pair (degree 0 terms, degree -1 terms) of
        _HomIndex.terms, the form compose_chain reads."""
        return (self.h0.terms(chain_vec[:self.h0.dim]),
                self.hm.terms(chain_vec[self.h0.dim:]))

    def split_reps(self) -> tuple:
        """split() of every rep, made on first use and kept."""
        reps = self._split_reps
        if reps is None:
            reps = self._split_reps = tuple(self.split(v) for v in self.reps)
        return reps


def compose_chain(f, g, hom_xz: HomK):
    """Chain vector of (g after f) in the coordinates of hom_xz, for chain
    maps f: X -> Y and g: Y -> Z given as HomK.split() pairs.  In each
    degree a term (i, t, a, c) of g meets a term (t, j, b, c') of f in the
    products of basis elements a * b at entry (i, j)."""
    A = hom_xz.X.A
    F = A.field
    vec = [F.zero] * (hom_xz.h0.dim + hom_xz.hm.dim)
    for idx, off, gs, fs in ((hom_xz.h0, 0, g[0], f[0]),
                             (hom_xz.hm, hom_xz.h0.dim, g[1], f[1])):
        for i, t, a, ca in gs:
            for t2, j, b, cb in fs:
                if t2 != t:
                    continue
                c = F.mul(ca, cb)
                for k, s in A.table.get((a, b), ()):
                    m = off + idx.pos[(i, j, k)]
                    vec[m] = F.add(vec[m], F.mul(c, s))
    return vec


def hom_homotopy(X: TwoTermComplex, Y: TwoTermComplex, shift: int = 0) -> int:
    """dim Hom(X, Y[shift]) in the homotopy category for shift -1, 0, 1:
    the dimension of H^shift of the Hom complex, so dim Hom^1 - rank d^0
    for shift 1 and dim Hom^-1 - rank d^-1 for shift -1."""
    if shift == 0:
        return HomK(X, Y).dim
    if shift not in (-1, 1):
        raise ComplexError("shift must be -1, 0 or 1")
    A, F = X.A, X.A.field
    h0 = _HomIndex(A, X.zero_idx, Y.zero_idx)
    hm = _HomIndex(A, X.neg_idx, Y.neg_idx)
    nv = h0.dim + hm.dim
    if shift == 1:
        h1 = _HomIndex(A, X.neg_idx, Y.zero_idx)
        rows = _hom_dzero(X, Y, h0, hm, h1)
        return h1.dim - rank(_dense(rows, nv, F), nv, F)
    hn = _HomIndex(A, X.zero_idx, Y.neg_idx)
    cols = _hom_dminus(X, Y, hn, h0, hm)
    return hn.dim - rank(_dense(cols, nv, F), nv, F)


def is_presilting(summands) -> bool:
    return all(hom_homotopy(X, Y, 1) == 0
               for X in summands for Y in summands)


def is_silting(summands) -> bool:
    if not summands:
        return False
    A = summands[0].A
    if len(summands) != A.n:
        return False
    if len({t.g_vector() for t in summands}) != len(summands):
        return False
    return is_presilting(summands)


# -- minimal approximations and mutation ------------------------------------


def _rad_end_reps(E: HomK) -> tuple:
    """Chain maps spanning the radical of End_K of a summand, as
    HomK.split() pairs."""
    F = E.X.A.field
    m = E.dim
    reps = E.split_reps()
    mult = [[None] * m for _ in range(m)]
    for s in range(m):
        for t in range(m):
            mult[s][t] = E.coords(compose_chain(reps[t], reps[s], E))
    rad = trace_radical(F, mult, ComplexError)
    out = []
    nv = len(E.reps[0]) if E.reps else 0
    for coeffs in rad:
        vec = [F.zero] * nv
        for c, rep in zip(coeffs, E.reps):
            if F.is_zero(c):
                continue
            for i, x in enumerate(rep):
                vec[i] = F.add(vec[i], F.mul(c, x))
        out.append(E.split(vec))
    return tuple(out)


class SummandTable:
    """The indecomposable summands of one walk, interned by g-vector.

    Over a finite-dimensional algebra the g-vector determines an
    indecomposable two-term presilting complex up to isomorphism
    (Adachi-Iyama-Reiten), so the table keeps one canonical complex per
    g-vector.  HomK per ordered pair, the End radical per complex and the
    factor span of images() per ordered triple are keyed by the canonical
    complexes themselves, which hash by identity; equal factor spans are
    one object, and the reps an approximation keeps are stored per HomK
    dimension and set of factor spans (kept_reps()).  The HomKs share one
    coordinate index per pair of slot lists.  Only canonical complexes
    reach hom(), rad_end() and images(), so a stored chain-map basis
    always belongs to the differentials it is used with.  Nothing is
    stored on the complexes, so one complex may be canonical in several
    tables, and every store lives exactly as long as its table.
    """

    def __init__(self, A: FiniteDimAlgebra):
        self.A = A
        self._summands: dict[tuple, TwoTermComplex] = {}
        self._homs: dict[tuple, HomK] = {}
        self._rads: dict[TwoTermComplex, tuple] = {}
        self._images: dict[tuple, tuple] = {}
        self._spans: dict[tuple, tuple] = {}
        self._kept: dict[tuple, tuple] = {}
        self._indices: dict[tuple, _HomIndex] = {}

    def canonical(self, X: TwoTermComplex) -> TwoTermComplex:
        """The table's complex with the g-vector of X; X itself when that
        g-vector is new."""
        if X.A is not self.A:
            raise ComplexError("summand lies over a different algebra")
        return self._summands.setdefault(X.g_vector(), X)

    def get(self, g) -> TwoTermComplex | None:
        """The canonical complex with g-vector g; None when the table
        holds none (or g is None)."""
        return self._summands.get(g)

    def complex_of(self, neg_idx, zero_idx, d) -> TwoTermComplex:
        """The canonical complex with these vertex indices in degrees -1 and
        0.  A complex is built from the differential d, and interned, only
        when its g-vector is new; otherwise d is not read."""
        A = self.A
        X = self.get(_g_vector(A.n, neg_idx, zero_idx))
        if X is None:
            X = self.canonical(TwoTermComplex(
                A, _labels(A, neg_idx), _labels(A, zero_idx), d))
        return X

    def hom(self, X: TwoTermComplex, Y: TwoTermComplex) -> HomK:
        """HomK(X, Y) for canonical X and Y."""
        h = self._homs.get((X, Y))
        if h is None:
            h = self._homs[X, Y] = HomK(X, Y, self._index)
        return h

    def _index(self, src_idx, tgt_idx) -> _HomIndex:
        """One _HomIndex per pair of slot lists, shared by the HomKs."""
        key = (tuple(src_idx), tuple(tgt_idx))
        idx = self._indices.get(key)
        if idx is None:
            idx = self._indices.setdefault(
                key, _HomIndex(self.A, src_idx, tgt_idx))
        return idx

    def rad_end(self, X: TwoTermComplex) -> tuple:
        """Chain maps spanning rad End_K(X) for canonical X, as
        HomK.split() pairs."""
        r = self._rads.get(X)
        if r is None:
            r = self._rads[X] = _rad_end_reps(self.hom(X, X))
        return r

    def images(self, S: TwoTermComplex, M: TwoTermComplex,
               T: TwoTermComplex) -> tuple:
        """The maps S -> T that factor through M, modulo homotopy, for
        canonical S, M, T: the span of the composites of HomK(S, M) and
        HomK(M, T) reps, where the factor at M runs over rad End_K(M)
        instead when M is S or T.  Returned as reduced echelon rows in the
        coordinates of HomK(S, T).coords, so each row has HomK(S, T).dim
        entries.  Every triple is composed once, until the span fills
        HomK(S, T), and kept; one whose factors are all zero is kept as ().
        Equal spans are returned as one object."""
        key = (S, M, T)
        rows = self._images.get(key)
        if rows is not None:
            return rows
        rows = ()
        H = self.hom(S, T)
        firsts = seconds = ()
        if H.dim:
            firsts = self.rad_end(M) if M is S \
                else self.hom(S, M).split_reps()
        if firsts:
            seconds = self.rad_end(M) if M is T \
                else self.hom(M, T).split_reps()
        if seconds:
            span = make_span(self.A.field, H.dim)
            for g, f in product(seconds, firsts):
                span.add(H.coords(compose_chain(f, g, H)))
                # a full span's echelon rows are the unit rows, whatever
                # composites would come next
                if span.dim == H.dim:
                    break
            # few distinct spans occur, so each is stored once
            rows = tuple(span.basis_rows())
            rows = self._spans.setdefault(rows, rows)
        self._images[key] = rows
        return rows

    def kept_reps(self, dim: int, spans) -> tuple:
        """The reps t < dim of a HomK whose unit vectors enlarge the join
        of the given images() spans together with the reps kept before
        them: the columns that are not last pivots of the join's echelon
        rows (last_pivot_rows).  The answer depends only on dim and the
        set of nonempty spans, which are interned, so it is looked up by
        their identities and computed once per distinct set."""
        spans = [rows for rows in spans if rows]
        key = (dim, frozenset(map(id, spans)))
        kept = self._kept.get(key)
        if kept is None:
            pivots = last_pivot_rows(
                self.A.field, [row for rows in spans for row in rows])
            kept = self._kept[key] = tuple(
                t for t in range(dim) if t not in pivots)
        return kept


def _approx_components(X: TwoTermComplex, others, side: str,
                       table: SummandTable):
    """Minimal left (side="left": X -> D) or right (side="right": D -> X)
    approximation of X by sums of the given summands, all canonical in the
    table and with distinct g-vectors.  For each D the maps that factor
    through the summands (through rad End_K(D) at D itself) span a subspace
    of HomK, the join of the table.images spans; rep t of HomK is kept
    exactly when its unit vector enlarges that span together with the reps
    kept before it, which table.kept_reps answers from the set of spans.
    Returns triples (D, HomK, t), one per copy of D used."""
    if side == "left":
        homs = [(D, table.hom(X, D)) for D in others]
    else:
        homs = [(D, table.hom(D, X)) for D in others]
    # only summands with a nonzero Hom on X's side take part: nothing
    # factors through the others
    linked = [M for M, H in homs if H.dim]
    images = table.images
    components = []
    for D, H in homs:
        if not H.dim:
            continue
        if side == "left":
            spans = [images(X, M, D) for M in linked]
        else:
            spans = [images(D, M, X) for M in linked]
        components.extend((D, H, t) for t in table.kept_reps(H.dim, spans))
    return components


def _reduce_three(A, levels, diffs):
    """Strip contractible identity pairs from a three-level complex.
    diffs[m] maps levels[m] to levels[m + 1]; eliminating the unit entry
    at (q, p) of diffs[m] adjusts only diffs[m] and then deletes the two
    slots and their lines (the chain conditions make every other affected
    entry vanish)."""
    F = A.field
    while True:
        found = None
        for m, M in enumerate(diffs):
            for q in range(len(levels[m + 1])):
                for p in range(len(levels[m])):
                    v = levels[m + 1][q]
                    if v != levels[m][p]:
                        continue
                    if not F.is_zero(A.unit_part(M[q][p], v)):
                        found = (m, q, p, v)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return
        m, q, p, v = found
        M = diffs[m]
        minv = A.local_inverse(M[q][p], v)
        for q2 in range(len(levels[m + 1])):
            if q2 == q:
                continue
            lead = A.mul(M[q2][p], minv)
            if not lead:
                continue
            for p2 in range(len(levels[m])):
                if p2 == p or not M[q][p2]:
                    continue
                M[q2][p2] = A.sub(M[q2][p2], A.mul(lead, M[q][p2]))
        del M[q]
        for row in M:
            del row[p]
        del levels[m + 1][q]
        del levels[m][p]
        if m - 1 >= 0:
            del diffs[m - 1][p]
        if m + 1 < len(diffs):
            for row in diffs[m + 1]:
                del row[q]


def _labels(A, idx_list):
    return [A.vertex_labels[i] for i in idx_list]


def _summand_sum(comps):
    """Direct sum of the approximation targets with the stacked component
    matrices (one block per copy)."""
    z_neg, z_zero = [], []
    f0_blocks, fm_blocks = [], []
    dz_rows = []
    for D, H, t in comps:
        terms0, termsm = H.split_reps()[t]
        f0, fm = H.h0.matrix(terms0), H.hm.matrix(termsm)
        dz_rows.append((len(z_zero), len(z_neg), D))
        z_zero.extend(D.zero_idx)
        z_neg.extend(D.neg_idx)
        f0_blocks.append(f0)
        fm_blocks.append(fm)
    dZ = [[dict() for _ in range(len(z_neg))] for _ in range(len(z_zero))]
    for row_off, col_off, D in dz_rows:
        for i, row in enumerate(D.d):
            for j, ent in enumerate(row):
                if ent:
                    dZ[row_off + i][col_off + j] = dict(ent)
    return z_neg, z_zero, dZ, f0_blocks, fm_blocks


def _exchange_g_vector(X, comps) -> tuple:
    """g-vector of the mutation of X read off its approximation components
    (one per copy of D), by the exchange triangle: g' = sum m_D g(D) - g(X)
    for either side."""
    g = [-c for c in X.g_vector()]
    for D, _, _ in comps:
        for i, c in enumerate(D.g_vector()):
            g[i] += c
    return tuple(g)


def _checked(Y, g_new):
    """Y, after checking that a built cone has the predicted g-vector."""
    if g_new is not None and Y.g_vector() != g_new:
        raise ComplexError(f"mutation built g-vector {Y.g_vector()}, "
                           f"the exchange triangle gives {g_new}")
    return Y


def _left_mutation(X, others, table, named=False):
    """Cone over the minimal left approximation, reduced, as the table's
    canonical complex; None when the reduced cone is not two-term.  When
    the caller named the direction (named True) and the table already
    holds the exchange g-vector, its complex is returned without building
    the cone."""
    A = X.A
    F = A.field
    comps = _approx_components(X, others, "left", table)
    g_new = _exchange_g_vector(X, comps) if named else None
    known = table.get(g_new)
    if known is not None:
        return known
    z_neg, z_zero, dZ, f0_blocks, fm_blocks = _summand_sum(comps)
    phi0 = [row for blk in f0_blocks for row in blk]     # rows over Z^0
    phim = [row for blk in fm_blocks for row in blk]     # rows over Z^-1
    levels = [list(X.neg_idx), list(X.zero_idx) + z_neg, list(z_zero)]
    d1 = [[A.scale(ent, F.neg(F.one)) for ent in row] for row in X.d]
    d1 += [[dict(ent) for ent in row] for row in phim]
    d2 = [[dict(ent) for ent in phi0[i]] + [dict(ent) for ent in dZ[i]]
          for i in range(len(z_zero))]
    _reduce_three(A, levels, [d1, d2])
    if levels[0]:
        return None
    return _checked(table.complex_of(levels[1], levels[2], d2), g_new)


def _right_mutation(X, others, table, named=False):
    """Cocone over the minimal right approximation, reduced, as the table's
    canonical complex; None when the reduced cocone is not two-term.  A
    named direction reads a known result off the table as in
    _left_mutation."""
    A = X.A
    F = A.field
    comps = _approx_components(X, others, "right", table)
    g_new = _exchange_g_vector(X, comps) if named else None
    known = table.get(g_new)
    if known is not None:
        return known
    z_neg, z_zero, dZ, f0_blocks, fm_blocks = _summand_sum(comps)
    psi0 = [[] for _ in X.zero_idx]      # rows over X^0, cols over Z^0
    psim = [[] for _ in X.neg_idx]
    for f0 in f0_blocks:
        for i in range(len(X.zero_idx)):
            psi0[i].extend(f0[i])
    for fm in fm_blocks:
        for i in range(len(X.neg_idx)):
            psim[i].extend(fm[i])
    levels = [list(z_neg), list(z_zero) + list(X.neg_idx),
              list(X.zero_idx)]
    d1 = [[A.scale(ent, F.neg(F.one)) for ent in row] for row in dZ]
    d1 += [[dict(ent) for ent in row] for row in psim]
    d2 = [[dict(ent) for ent in psi0[i]] + [dict(ent) for ent in X.d[i]]
          for i in range(len(X.zero_idx))]
    _reduce_three(A, levels, [d1, d2])
    if levels[2]:
        return None
    return _checked(table.complex_of(levels[0], levels[1], d1), g_new)


def mutate(summands, k: int, direction: str | None = None,
           table: SummandTable | None = None):
    """Replace the k-th summand by its mutation against the others.  With
    direction None the cone over the minimal left approximation is tried
    first, then the cocone over the minimal right approximation; exactly
    one of them reduces to a two-term complex, and the cone is always
    built.  A named direction computes only that side's approximation,
    reads the new g-vector g' = sum m_D g(D) - g(X) off it, and returns the
    table's complex when the table holds g'; otherwise it builds the cone
    and checks that its g-vector is g'.  A caller passing a table passes
    that table's canonical complexes, as enumerate_graph does; with table
    None a fresh table serves this one call and the summands are first
    replaced by its canonical complexes.  The new summand returned is
    canonical too.  Returns (new summand list, direction taken)."""
    if direction not in (None, "left", "right"):
        raise ComplexError(f"unknown mutation direction {direction!r}")
    if table is None:
        table = SummandTable(summands[k].A)
        summands = [table.canonical(s) for s in summands]
    else:
        summands = list(summands)
    X = summands[k]
    others = [s for i, s in enumerate(summands) if i != k]
    new = None
    taken = None
    named = direction is not None
    if direction in (None, "left"):
        new = _left_mutation(X, others, table, named)
        if new is not None:
            taken = "left"
        elif direction == "left":
            raise ComplexError("left mutation does not stay two-term here")
    if new is None:
        new = _right_mutation(X, others, table, named)
        if new is not None:
            taken = "right"
    if new is None:
        raise ComplexError("mutation produced no two-term complex "
                           "in either direction")
    summands[k] = new
    return summands, taken


# -- pairs (module part, removed vertices) <-> complexes --------------------


def complex_of_pair(A: FiniteDimAlgebra, modules, removed) \
        -> list[TwoTermComplex]:
    """Summand list: the minimal presentation of each module summand plus
    one shifted projective per removed vertex."""
    from .modules import is_stau_pair
    if not is_stau_pair(A, list(modules), list(removed)):
        raise ComplexError("not a valid support pair")
    return [M.min_presentation() for M in modules] \
        + [TwoTermComplex.shifted(A, v) for v in sorted(removed)]


def pair_of_complex(summands):
    """H^0 of the unshifted summands plus the removed-vertex set read off
    the shifted projective summands.  Requires a silting input."""
    if not is_silting(summands):
        raise ComplexError("not a two-term silting object")
    modules = []
    removed = []
    for t in summands:
        if not t.zero:
            removed.extend(t.neg)
        else:
            modules.append(t.h0_module())
    return modules, sorted(removed)
