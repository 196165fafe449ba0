"""Two-term complexes of projectives and their mutation.

A complex P^{-1} -> P^0 is stored as two lists of vertex labels (one
indecomposable projective summand per entry) plus the differential, a
matrix over the algebra: entry (i, j) lies in the block
e_{zero_i} A e_{neg_j} and acts by left multiplication as a map of right
modules e_{neg_j}A -> e_{zero_i}A.

Morphism spaces in the homotopy category are read off one Hom complex
Hom^-1 -> Hom^0 -> Hom^1 per pair (X, Y), whose two differentials are
placed from per-summand actions of d_X and d_Y: H^0 is HomK, the chain maps
ker d^0 modulo the null-homotopic maps im d^-1, and H^1 and H^-1 are
Hom(X, Y[1]) and Hom(X, Y[-1]); a two-term complex is presilting exactly
when H^1 of its Hom complex with itself vanishes.  Mutation at a
summand X is one mapping cone of a minimal approximation f: U -> V by the
remaining summands Z, left (X -> Z) or right (Z -> X), with contractible
pairs stripped until every differential entry is radical; the side whose
reduced cone is two-term gives the new summand.  What a complex alone
determines (g-vector, H^0 dimensions, the actions of its differential)
is kept on the complex, and each Hom coordinate index on the algebra
(FiniteDimAlgebra.hom_index), so every HomK shares them.  Summands are
interned by g-vector in a SummandTable, which holds the relational data,
keyed by the canonical complexes themselves: the HomK spaces and End
radicals mutation needs and, per triple (S, M, T), the span of the maps
S -> T that factor through M, in the quotient coordinates of HomK(S, T).
Equal spans are one object, and the components an approximation keeps
are looked up by HomK dimension and the set of spans, so an
approximation reads a few dicts instead of composing chain maps or
eliminating rows again.  No span tracks coefficients and no matrix is
made dense: HomK eliminates d^0's sparse rows once, reads chain maps as
coordinates at the free columns, eliminates the homotopy vectors in those
few coordinates, and builds only the kernel vectors that survive as reps.
Chain maps are composed from their sparse terms, which each HomK keeps
for its reps.  A mutation result is read off the reduced slot lists
first, and a complex is built only for a g-vector the table does not
hold yet.
"""
from __future__ import annotations

from itertools import product
from operator import add

from .algebra import FiniteDimAlgebra, _HomIndex
# kernel is not called here but stays bound: perfbench/layertrace.py wraps
# it in every module that imports it
from .linalg import (combine, kernel, make_span, non_pivots, primitive,
                     sparse_echelon, trace_radical)


class ComplexError(ValueError):
    pass


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
        self._actions: dict[tuple, tuple] = {}

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

    def action(self, v: int, pre: bool) -> tuple:
        """_action(A, self, v, pre), made once per vertex and side."""
        act = self._actions.get((v, pre))
        if act is None:
            act = self._actions[v, pre] = _action(self.A, self, v, pre)
        return act

    def _image_rows(self):
        """Images of the degree -1 basis inside the degree 0 projective,
        in the concatenated block-basis coordinates of the latter."""
        A = self.A
        F = A.field
        # (slot, algebra basis index) per coordinate
        pbasis = [(i, k) for i, t in enumerate(self.zero_idx)
                  for k in A.proj_basis[t]]
        pos = {ik: m for m, ik in enumerate(pbasis)}
        rows = []
        for j, s in enumerate(self.neg_idx):
            for k0 in A.proj_basis[s]:
                vec = [F.zero] * len(pbasis)
                for i, row in enumerate(self.d):
                    if row[j]:
                        for m, c in A.mul(row[j], {k0: F.one}).items():
                            vec[pos[(i, m)]] = c
                if any(vec):
                    rows.append(vec)
        return pbasis, rows

    def h0_dim_vector(self) -> list[int]:
        if self._h0dv is not None:
            return list(self._h0dv)
        A = self.A
        pbasis, rows = self._image_rows()
        # H^0 lives on the coordinates that are not last pivots of the
        # image, as in h0_module's quotient
        dims = [0] * A.n
        for m in non_pivots(A.field, map(enumerate, rows), len(pbasis)):
            dims[A.tgt[pbasis[m][1]]] += 1
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


def _action(A: FiniteDimAlgebra, Z: TwoTermComplex, v: int,
            pre: bool) -> tuple:
    """h -> h d_Z from Hom(Z^0, P_v) to Hom(Z^-1, P_v) (pre), or
    h -> d_Z h from Hom(P_v, Z^-1) to Hom(P_v, Z^0), for P_v = e_v A: its
    nonzero entries as (source slot, position in its block, target slot,
    position in its block, coefficient), positions as in A.block_pos."""
    bpos = A.block_pos
    src, d = (Z.zero_idx, Z.d) if pre else (Z.neg_idx, list(zip(*Z.d)))
    out = []
    for s, (u, row) in enumerate(zip(src, d)):
        for p, k in enumerate(A.blocks.get((v, u) if pre else (u, v), ())):
            x = {k: A.field.one}
            for t, ent in enumerate(row):
                if ent:
                    prod = A.mul(x, ent) if pre else A.mul(ent, x)
                    out.extend((s, p, t, bpos[m], c) for m, c in prod.items())
    return tuple(out)


def _hom_dminus(X: TwoTermComplex, Y: TwoTermComplex, hn: _HomIndex,
                h0: _HomIndex, hm: _HomIndex) -> list:
    """d^-1 of the Hom complex of X and Y, from Hom^-1 = Hom(X^0, Y^-1)
    (index hn) to the chain vectors Hom^0 = Hom(X^0, Y^0) ++
    Hom(X^-1, Y^-1) (indices h0 and hm): d^-1 h = (d_Y h, h d_X).  Returns
    its nonzero columns, in the triple order of hn, each as the
    (chain coordinate, entry) pairs of its nonzero entries, placed from
    the actions of X and Y (TwoTermComplex.action)."""
    cols = [[] for _ in range(hn.dim)]
    if cols and h0.dim:
        for j, v in enumerate(X.zero_idx):
            for t, p, i, q, c in Y.action(v, False):
                cols[hn.start[t][j] + p].append((h0.start[i][j] + q, c))
    if cols and hm.dim:
        for i, v in enumerate(Y.neg_idx):
            src, tgt = hn.start[i], hm.start[i]
            for t, p, j, q, c in X.action(v, True):
                cols[src[t] + p].append((h0.dim + tgt[j] + q, c))
    return [col for col in cols if col]


def _hom_dzero(X: TwoTermComplex, Y: TwoTermComplex, h0: _HomIndex,
               hm: _HomIndex, h1: _HomIndex) -> list:
    """d^0 of the Hom complex of X and Y, from the chain vectors (indices
    h0 and hm) to Hom^1 = Hom(X^-1, Y^0) (index h1):
    d^0 (f^0, f^-1) = d_Y f^-1 - f^0 d_X.  Returns one row per coordinate
    of Hom^1, as the (chain coordinate, entry) pairs of its nonzero
    entries, placed from the actions as in _hom_dminus."""
    neg = X.A.field.neg
    rows = [[] for _ in range(h1.dim)]
    if rows and h0.dim:
        for i, v in enumerate(Y.zero_idx):
            src, tgt = h0.start[i], h1.start[i]
            for t, p, j, q, c in X.action(v, True):
                rows[tgt[j] + q].append((src[t] + p, neg(c)))
    if rows and hm.dim:
        for j, v in enumerate(X.neg_idx):
            for t, p, i, q, c in Y.action(v, False):
                rows[h1.start[i][j] + q].append(
                    (h0.dim + hm.start[t][j] + p, c))
    return rows


class HomK:
    """Hom between two-term complexes modulo homotopy: H^0 of their Hom
    complex, the chain maps ker d^0 (_hom_dzero) modulo the null-homotopic
    maps im d^-1 (_hom_dminus).  Chain maps are vectors over the
    coordinates of Hom(X^0, Y^0) ++ Hom(X^-1, Y^-1).

    No span tracks coefficients and no matrix is made dense.  One sparse
    elimination of d^0's rows (sparse_echelon, first-pivot) gives the free
    columns f_j, and with them the kernel vector k_j, 1 at f_j and -R_p[f_j]
    at each pivot p, normalised as kernel() normalises it: it is nonzero at
    f_j, its last nonzero entry, and zero at every other free column, so a
    chain map v is sum_j (v[f_j] / k_j[f_j]) k_j.  The homotopy vectors
    read at the free columns span a subspace of those coordinates.  Its
    echelon form with each row pivoted at its last nonzero entry has a
    pivot at j exactly when k_j lies in the span of the homotopy vectors
    and k_0 .. k_{j-1}; reps are the other k_j, in order, and only they
    are built.  coords() is a fixed sparse map from the free-column entries
    of a chain map to the reps.  The ranks of d^0 and d^-1, which
    hom_homotopy reads H^1 and H^-1 off, are the numbers of pivots of the
    two eliminations, as each homotopy vector is a chain map and so is
    fixed by its entries at the free columns.  The coordinate index of
    each pair of slot lists is the algebra's (A.hom_index), and the action
    of each differential is the complex's (TwoTermComplex.action), so
    every HomK over the same complexes shares both."""

    def __init__(self, X: TwoTermComplex, Y: TwoTermComplex):
        if X.A is not Y.A:
            raise ComplexError("complexes lie over different algebras")
        F = X.A.field
        index = X.A.hom_index
        self.X, self.Y = X, Y
        self.h0 = h0 = index(X.zero_idx, Y.zero_idx)
        self.hm = hm = index(X.neg_idx, Y.neg_idx)
        self.hn = hn = index(X.zero_idx, Y.neg_idx)
        nv = h0.dim + hm.dim
        self._d0 = _hom_dzero(X, Y, h0, hm, index(X.neg_idx, Y.zero_idx))
        dzero = sparse_echelon(F, self._d0)
        self.rank_dzero = len(dzero)
        free = [f for f in range(nv) if f not in dzero]
        # the homotopy vectors at the free columns, w_j = h[f_j]: scaling
        # column j by k_j[f_j] moves no pivot
        slot = {f: j for j, f in enumerate(free)}
        pivots = sparse_echelon(F, (
            [(slot[c], x) for c, x in ents if c in slot]
            for ents in (_hom_dminus(X, Y, hn, h0, hm)
                         if free else ())), last=True)
        self.rank_dminus = len(pivots)
        self.reps = []
        self._coords = []
        for r, f in enumerate(free):
            if r in pivots:
                continue
            rep = [F.zero] * nv
            rep[f] = F.one
            for p, row in dzero.items():
                if f in row:
                    rep[p] = F.neg(row[f])
            if not F.characteristic:
                rep = list(primitive(rep))
            self.reps.append(rep)
            # rep r of the class of v is (w_r - sum_p w_p R_p[r]) / k_r[f_r],
            # for w_j = v[f_j] and R_p the echelon row pivoted at p
            s = F.inv(rep[f])
            self._coords.append(((f, s),) + tuple(
                (free[p], F.neg(F.mul(row[r], s)))
                for p, row in pivots.items() if r in row))
        self.dim = len(self.reps)
        self._split_reps = None

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
    products of basis elements a * b at entry (i, j), placed at the block
    start of (i, j) plus the position A.block_pos of each product's basis
    element."""
    A = hom_xz.X.A
    F = A.field
    bpos = A.block_pos
    vec = [F.zero] * (hom_xz.h0.dim + hom_xz.hm.dim)
    for idx, off, gs, fs in ((hom_xz.h0, 0, g[0], f[0]),
                             (hom_xz.hm, hom_xz.h0.dim, g[1], f[1])):
        for i, t, a, ca in gs:
            start = idx.start[i]
            for t2, j, b, cb in fs:
                if t2 != t:
                    continue
                c = F.mul(ca, cb)
                for k, s in A.table.get((a, b), ()):
                    m = off + start[j] + bpos[k]
                    vec[m] = F.add(vec[m], F.mul(c, s))
    return vec


def hom_homotopy(X: TwoTermComplex, Y: TwoTermComplex, shift: int = 0) -> int:
    """dim Hom(X, Y[shift]) in the homotopy category for shift -1, 0, 1:
    the dimension of H^shift of the Hom complex, read off HomK(X, Y):
    dim Hom^1 - rank d^0 for shift 1 and dim Hom^-1 - rank d^-1 for
    shift -1."""
    if shift not in (-1, 0, 1):
        raise ComplexError("shift must be -1, 0 or 1")
    K = HomK(X, Y)
    if shift == 0:
        return K.dim
    if shift == 1:
        return len(K._d0) - K.rank_dzero
    return K.hn.dim - K.rank_dminus


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
    nv = E.h0.dim + E.hm.dim
    return tuple(E.split(combine(F, coeffs, E.reps, nv))
                 for coeffs in trace_radical(F, mult, ComplexError))


class SummandTable:
    """The indecomposable summands of one walk, interned by g-vector.

    Over a finite-dimensional algebra the g-vector determines an
    indecomposable two-term presilting complex up to isomorphism
    (Adachi-Iyama-Reiten), so the table keeps one canonical complex per
    g-vector.  HomK per ordered pair, the End radical per complex and the
    factor span of images() per ordered triple are keyed by the canonical
    complexes themselves, which hash by identity; equal factor spans are
    one object, and the reps an approximation keeps are stored per HomK
    dimension and set of factor spans (kept_reps()).  Only canonical
    complexes reach hom(), rad_end() and images(), so a stored chain-map
    basis always belongs to the differentials it is used with.  The table
    holds only this relational data: what a complex alone determines
    (g-vector, H^0 dimensions, actions) lives on the complex, and the
    coordinate indices on the algebra, so one complex may be canonical in
    several tables, and every store of the table lives exactly as long as
    the table.
    """

    def __init__(self, A: FiniteDimAlgebra):
        self.A = A
        self._summands: dict[tuple, TwoTermComplex] = {}
        self._homs: dict[tuple, HomK] = {}
        self._rads: dict[TwoTermComplex, tuple] = {}
        self._images: dict[tuple, tuple] = {}
        self._spans: dict[tuple, tuple] = {}
        self._kept: dict[tuple, tuple] = {}

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
            h = self._homs[X, Y] = HomK(X, Y)
        return h

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
                # a zero composite adds nothing
                if any(vec := compose_chain(f, g, H)):
                    span.add(H.coords(vec))
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
        rows (linalg.non_pivots).  The answer depends only on dim and the
        set of nonempty spans, which are interned, so it is looked up by
        their identities and computed once per distinct set."""
        spans = [rows for rows in spans if rows]
        key = (dim, frozenset(map(id, spans)))
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = tuple(non_pivots(
                self.A.field,
                (enumerate(row) for rows in spans for row in rows), dim))
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
    The scan over the summands stops at the first span that fills HomK:
    then the join is full and D takes no copy.  Returns triples
    (D, HomK, t), one per copy of D used."""
    # a hit is read straight off the table's stores; only a miss goes
    # through hom() or images(), which build and store it
    stored_hom = table._homs.get
    stored_rows = table._images.get
    left = side == "left"
    homs = []
    for D in others:
        pair = (X, D) if left else (D, X)
        H = stored_hom(pair)
        homs.append((D, table.hom(*pair) if H is None else H))
    # only summands with a nonzero Hom on X's side take part: nothing
    # factors through the others
    linked = [M for M, H in homs if H.dim]
    components = []
    for D, H in homs:
        if not H.dim:
            continue
        spans = []
        for M in linked:
            triple = (X, M, D) if left else (D, M, X)
            rows = stored_rows(triple)
            if rows is None:
                rows = table.images(*triple)
            if len(rows) == H.dim:
                break
            spans.append(rows)
        else:
            components.extend((D, H, t)
                              for t in table.kept_reps(H.dim, spans))
    return components


def _reduce_three(A, levels, diffs):
    """Strip contractible identity pairs from a three-level complex.
    diffs[m] maps levels[m] to levels[m + 1]; eliminating the unit entry
    at (q, p) of diffs[m] adjusts only diffs[m] and then deletes the two
    slots and their lines (the chain conditions make every other affected
    entry vanish)."""
    F = A.field
    while True:
        found = next(((m, q, p, v) for m, M in enumerate(diffs)
                      for q, v in enumerate(levels[m + 1])
                      for p, u in enumerate(levels[m])
                      if u == v and not F.is_zero(A.unit_part(M[q][p], v))),
                     None)
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


def _summand_sum(X, comps, side):
    """The other end Z of the approximation (one copy of D per component)
    as (neg_idx, zero_idx, d), and the degree 0 and -1 matrices of f: X -> Z
    (left, a row block per copy) or f: Z -> X (right, a column block per
    copy), from the components' terms.  Entries of the D.d are shared."""
    def zeros(rows, cols):
        return [[{} for _ in cols] for _ in rows]

    z_neg = [v for D, _, _ in comps for v in D.neg_idx]
    z_zero = [v for D, _, _ in comps for v in D.zero_idx]
    dZ = zeros(z_zero, z_neg)
    if side == "left":
        f0, fm = zeros(z_zero, X.zero_idx), zeros(z_neg, X.neg_idx)
    else:
        f0, fm = zeros(X.zero_idx, z_zero), zeros(X.neg_idx, z_neg)
    off0 = offm = 0
    for D, H, t in comps:
        for i, row in enumerate(D.d):
            dZ[off0 + i][offm:offm + len(row)] = row
        for f, off, terms in zip((f0, fm), (off0, offm), H.split_reps()[t]):
            for i, j, k, c in terms:
                if side == "left":
                    f[off + i][j][k] = c
                else:
                    f[i][off + j][k] = c
        off0 += len(D.zero_idx)
        offm += len(D.neg_idx)
    return (z_neg, z_zero, dZ), f0, fm


def _mutation(X, others, table, named, side):
    """Mutation of X against the others: the mapping cone of the minimal
    left (side="left") or right (side="right") approximation f: U -> V,
    with (U, V) = (X, Z) or (Z, X), on the levels U^-1, U^0 + V^-1, V^0
    with differentials (-d_U; f^-1) and (f^0 | d_V), reduced.  Returns
    the table's canonical complex on the last two levels (left) or the
    first two (right); None when the reduced cone keeps all three.  When
    the caller named the direction (named True) and the table already
    holds the exchange g-vector g' = sum m_D g(D) - g(X), its complex is
    returned without building the cone; a built cone must have g'."""
    A = X.A
    comps = _approx_components(X, others, side, table)
    g_new = None
    if named:
        g_new = tuple(-x for x in X.g_vector())
        for D, _, _ in comps:
            g_new = tuple(map(add, g_new, D.g_vector()))
    known = table.get(g_new)
    if known is not None:
        return known
    Z, f0, fm = _summand_sum(X, comps, side)
    pair = ((X.neg_idx, X.zero_idx, X.d), Z)
    (u_neg, u_zero, dU), (v_neg, v_zero, dV) = \
        pair if side == "left" else pair[::-1]
    minus = A.field.neg(A.field.one)
    levels = [list(u_neg), list(u_zero) + list(v_neg), list(v_zero)]
    diffs = [[[A.scale(ent, minus) for ent in row] for row in dU] + fm,
             [row0 + row for row0, row in zip(f0, dV)]]
    _reduce_three(A, levels, diffs)
    m = 1 if side == "left" else 0    # a cone keeps levels m and m + 1
    if levels[2 - 2 * m]:
        return None
    Y = table.complex_of(levels[m], levels[m + 1], diffs[m])
    if g_new is not None and Y.g_vector() != g_new:
        raise ComplexError(f"mutation built g-vector {Y.g_vector()}, "
                           f"the exchange triangle gives {g_new}")
    return Y


# one name per side, for callers that bind or wrap a side on its own
def _left_mutation(X, others, table, named=False):
    return _mutation(X, others, table, named, "left")


def _right_mutation(X, others, table, named=False):
    return _mutation(X, others, table, named, "right")


def mutate(summands, k: int, direction: str | None = None,
           table: SummandTable | None = None):
    """Replace the k-th summand by its mutation against the others
    (_mutation).  With direction None the left cone is tried first, then
    the right one; exactly one of them reduces to a two-term complex, and
    the left cone is always built.  A named direction computes only that
    side, and builds its cone only for an exchange g-vector the table does
    not hold.  A caller passing a table passes
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
    named = direction is not None
    for side in (direction,) if named else ("left", "right"):
        mutation = _left_mutation if side == "left" else _right_mutation
        new = mutation(X, others, table, named)
        if new is not None:
            summands[k] = new
            return summands, side
    if direction == "left":
        raise ComplexError("left mutation does not stay two-term here")
    raise ComplexError("mutation produced no two-term complex "
                       "in either direction")


# -- pairs (module part, removed vertices) <-> complexes --------------------


def complex_of_pair(A: FiniteDimAlgebra, modules, removed) \
        -> list[TwoTermComplex]:
    """Summand list: the minimal presentation of each module summand plus
    one shifted projective per removed vertex."""
    from .modules import is_stau_pair
    modules, removed = list(modules), list(removed)
    if not is_stau_pair(A, modules, removed):
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
