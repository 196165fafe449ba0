"""Finite-dimensional basic algebras by structure constants.

Every constructor maintains one invariant: the first n basis elements are
the vertex idempotents, the remaining ones span the Jacobson radical J, and
each basis element lies in a single block e_i A e_j.  J is generated by
generators() (the arrows): every radical basis element is a sum of paths
ending in an arrow, so M J = sum of M a over the arrows a, and J^(k+1) =
J^k (arrows).  Elements are sparse dicts {basis index: scalar}.
"""
from __future__ import annotations

from itertools import islice, product

from .fields import QQ, Field, PrimeField
from .gbasis import CapInsufficient, NCGroebner, _has_cycle
from .linalg import combine, kernel, make_span, non_pivots, sparse_echelon
from .quiver import Presentation


class AlgebraError(ValueError):
    pass


# Most candidate functionals is_symmetric tries over GF(p).
SYMMETRY_SEARCH_LIMIT = 1 << 16

# The Groebner completion of the basis build stops at a leading word of
# twice this length.
MAX_WORD = 48


class _HomIndex:
    """k-linear coordinates on Hom_A(+ e_{s_j}A, + e_{t_i}A), whose basis
    is triples (target slot i, source slot j, basis element of the block
    e_{t_i} A e_{s_j}); the block of (i, j) starts at start[i][j]."""

    def __init__(self, A: "FiniteDimAlgebra", src_idx, tgt_idx):
        self.A = A
        self.src_idx = list(src_idx)
        self.tgt_idx = list(tgt_idx)
        self.triples = triples = []
        self.start = []
        for i, t in enumerate(self.tgt_idx):
            self.start.append([])
            for j, s in enumerate(self.src_idx):
                self.start[i].append(len(triples))
                for k in A.blocks.get((t, s), ()):
                    triples.append((i, j, k))
        self.dim = len(self.triples)

    def terms(self, vec) -> tuple:
        """The nonzero coordinates of vec as terms (i, j, k, c)."""
        F = self.A.field
        return tuple((i, j, k, c) for (i, j, k), c in zip(self.triples, vec)
                     if not F.is_zero(c))


class FiniteDimAlgebra:
    def __init__(self, field: Field, vertex_labels, src, tgt, labels, table,
                 presentation: Presentation | None = None, lam=None,
                 words=None):
        self.field = field
        self.vertex_labels = list(vertex_labels)
        self.n = len(self.vertex_labels)
        self.src = list(src)          # source vertex index per basis element
        self.tgt = list(tgt)
        self.labels = list(labels)
        self.dim = len(self.src)
        self.table = table            # (a, b) -> tuple of (index, scalar)
        self.presentation = presentation
        self.lam = lam
        self.words = words            # arrow words of basis elements, or None
        # blocks[(i, j)]: the basis of e_i A e_j; block_pos[k]: the position
        # of k there; proj_basis[v]: the basis of e_v A; each in index order
        self.blocks: dict[tuple[int, int], list[int]] = {}
        self.block_pos: list[int] = []
        self.proj_basis: list[list[int]] = [[] for _ in range(self.n)]
        for k in range(self.dim):
            block = self.blocks.setdefault((self.src[k], self.tgt[k]), [])
            self.block_pos.append(len(block))
            block.append(k)
            self.proj_basis[self.src[k]].append(k)
        self._arrow_indices = None
        self._opposite = None
        self._hom_indices: dict[tuple, _HomIndex] = {}

    # -- element arithmetic -------------------------------------------------

    def e(self, vi: int) -> dict:
        return {vi: self.field.one}

    def unit(self) -> dict:
        return {i: self.field.one for i in range(self.n)}

    def mul(self, x: dict, y: dict) -> dict:
        F = self.field
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                row = self.table.get((a, b))
                if not row:
                    continue
                c = F.mul(ca, cb)
                for idx, s in row:
                    v = F.add(out.get(idx, F.zero), F.mul(c, s))
                    if F.is_zero(v):
                        out.pop(idx, None)
                    else:
                        out[idx] = v
        return out

    def add(self, x: dict, y: dict) -> dict:
        F = self.field
        out = dict(x)
        for k, c in y.items():
            v = F.add(out.get(k, F.zero), c)
            if F.is_zero(v):
                out.pop(k, None)
            else:
                out[k] = v
        return out

    def scale(self, x: dict, c) -> dict:
        F = self.field
        if F.is_zero(c):
            return {}
        return {k: F.mul(v, c) for k, v in x.items()}

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, self.scale(y, self.field.neg(self.field.one)))

    def as_vector(self, x: dict) -> list:
        v = [self.field.zero] * self.dim
        for k, c in x.items():
            v[k] = c
        return v

    def as_element(self, vec) -> dict:
        F = self.field
        return {k: c for k, c in enumerate(vec) if not F.is_zero(c)}

    def unit_part(self, x: dict, vi: int):
        """Coefficient of the idempotent e_vi (basis index vi)."""
        return x.get(vi, self.field.zero)

    def local_inverse(self, x: dict, vi: int) -> dict:
        """Inverse of a unit x of the local algebra e_vi A e_vi."""
        F = self.field
        c = self.unit_part(x, vi)
        if F.is_zero(c):
            raise AlgebraError("element is not a local unit")
        cinv = F.inv(c)
        r = self.sub(x, {vi: c})      # radical part, nilpotent
        # (c + r)^-1 = c^-1 sum_k (-c^-1 r)^k
        minus = self.scale(r, F.neg(cinv))
        acc = self.e(vi)
        power = self.e(vi)
        while True:
            power = self.mul(power, minus)
            if not power:
                break
            acc = self.add(acc, power)
        return self.scale(acc, cinv)

    def hom_index(self, src_idx, tgt_idx) -> _HomIndex:
        """The _HomIndex of Hom(+ e_s A, + e_t A) over the vertex index
        lists src_idx and tgt_idx, made once per pair of lists."""
        key = (tuple(src_idx), tuple(tgt_idx))
        idx = self._hom_indices.get(key)
        if idx is None:
            idx = self._hom_indices[key] = _HomIndex(self, *key)
        return idx

    # -- structural subspaces ----------------------------------------------

    def _diagonal(self) -> list[int]:
        """Basis elements with src = tgt: a functional vanishing on every
        [x, e_i], and an element commuting with every e_i, lives on them."""
        return [k for k in range(self.dim) if self.src[k] == self.tgt[k]]

    def _arrows(self) -> list[int]:
        """Basis indices of generators(), worked out once: the words of
        length one, or without words the radical basis elements that
        extend J^2, the span of the radical x radical products, in order:
        the radical columns that are not last pivots of its echelon
        rows, read by non_pivots straight off the table's sparse rows."""
        if self._arrow_indices is None:
            if self.words is not None:
                self._arrow_indices = [k for k in range(self.n, self.dim)
                                       if len(self.words[k]) == 1]
            else:
                rows = (row for (a, b), row in self.table.items()
                        if a >= self.n and b >= self.n)
                self._arrow_indices = [
                    k for k in non_pivots(self.field, rows, self.dim)
                    if k >= self.n]
        return self._arrow_indices

    def _on_diagonal(self, vec, diag) -> tuple:
        """A kernel vector over the diagonal columns, as a vector of A."""
        out = [0] * self.dim
        for k, c in zip(diag, vec):
            out[k] = c
        return tuple(out)

    def socle_basis(self) -> list[dict]:
        """Right socle {x : x J = 0}, one basis per block e_i A e_j, blocks
        in sorted order.  Every element of J is a sum of products of
        arrows, so x J = 0 iff x a = 0 for every arrow a.  The socle is a
        two-sided ideal, hence the sum of its blocks, and a block (i, j)
        only meets the arrows leaving j, whose products are read off the
        table."""
        F = self.field
        leaving: dict[int, list[int]] = {}
        for a in self._arrows():
            leaving.setdefault(self.src[a], []).append(a)
        out = []
        for (_, j), cols in sorted(self.blocks.items()):
            rows = []
            for a in leaving.get(j, ()):
                by_m: dict = {}
                for c, k in enumerate(cols):
                    for m, s in self.table.get((k, a), ()):
                        by_m.setdefault(m, [F.zero] * len(cols))[c] = s
                rows.extend(by_m.values())
            for vec in kernel(rows, len(cols), F):
                out.append({k: c for k, c in zip(cols, vec)
                            if not F.is_zero(c)})
        return out

    def center_basis(self) -> list[tuple]:
        """Center of A.  A central z commutes with every e_i, so it lies
        in the diagonal blocks, which are the unknowns; and z commutes
        with all of A iff it commutes with the idempotents and the arrows.
        So the equations are the coordinates of [z, a] for the arrows a,
        which only the diagonal blocks at src a and tgt a reach."""
        F = self.field
        diag = self._diagonal()
        col = {k: c for c, k in enumerate(diag)}
        rows = []
        for a in self._arrows():
            i, j = self.src[a], self.tgt[a]
            terms = [(k, m, s) for k in self.blocks[(i, i)]          # z a
                     for m, s in self.table.get((k, a), ())]
            terms += [(k, m, F.neg(s)) for k in self.blocks[(j, j)]  # -a z
                      for m, s in self.table.get((a, k), ())]
            by_m: dict = {}
            for k, m, s in terms:
                row = by_m.setdefault(m, [F.zero] * len(diag))
                row[col[k]] = F.add(row[col[k]], s)
            rows.extend(by_m[m] for m in sorted(by_m))
        return [self._on_diagonal(vec, diag)
                for vec in kernel(rows, len(diag), F)]

    def generators(self) -> list[dict]:
        """Radical elements generating A together with the idempotents
        (arrows, for presented algebras)."""
        return [{k: self.field.one} for k in self._arrows()]

    # -- symmetry -----------------------------------------------------------

    def commutators(self) -> list[dict]:
        """A spanning list of [A, A]: the off-diagonal basis elements, then
        the nonzero [x, a] for the arrows a and x in the block
        (tgt a, src a).  [A, A] is spanned by the [x, g] with x a basis
        element and g a generator (an idempotent or an arrow), since
        [x, yz] = [xy, z] + [zx, y].  The [x, e_i] span the off-diagonal
        blocks, and [x, a] lies in them unless x is in the block
        (tgt a, src a), where it lies in the diagonal ones."""
        F = self.field
        out = [{k: F.one} for k in range(self.dim)
               if self.src[k] != self.tgt[k]]
        for a in self._arrows():
            for x in self.blocks.get((self.tgt[a], self.src[a]), ()):
                neg_ax = {m: F.neg(s) for m, s in self.table.get((a, x), ())}
                c = self.add(dict(self.table.get((x, a), ())), neg_ax)
                if c:
                    out.append(c)
        return out

    def symmetric_functionals(self) -> list[tuple]:
        """Basis of {f in A* : f(ab) = f(ba) for all a, b}, the functionals
        vanishing on commutators().  The off-diagonal basis elements in
        that list put f on the diagonal blocks, where the others lie."""
        F = self.field
        diag = self._diagonal()
        col = {k: c for c, k in enumerate(diag)}
        rows = []
        for c in self.commutators():
            if next(iter(c)) in col:
                row = [F.zero] * len(diag)
                for m, s in c.items():
                    row[col[m]] = s
                rows.append(row)
        return [self._on_diagonal(vec, diag)
                for vec in kernel(rows, len(diag), F)]

    def is_symmetric(self) -> bool:
        """True iff some symmetric functional f has a nondegenerate pairing
        f(ab); exact in every field.

        A symmetric algebra is Frobenius, so for each vertex v the space
        U_v = {x in soc(A_A) : x e_v = x} (the socle blocks (i, v)) is a
        line k u_v; otherwise the answer is False.  The radical of the
        pairing is a right ideal inside ker f, and every nonzero right
        ideal contains a simple one, which is some k u_v; so f is
        nondegenerate iff f(u_v) != 0 for every v.  Let W be the image of
        the symmetric functionals under f -> (f(u_v))_v.  The answer is
        False if a coordinate vanishes on all of W.  Otherwise it is True
        over Q, and over GF(p) when the coordinates cut out at most p
        distinct hyperplanes of W, since no space over GF(p) is a union of
        at most p proper subspaces.  Past that, W is searched for a point
        with no zero coordinate, and AlgebraError is raised when the first
        SYMMETRY_SEARCH_LIMIT candidates hold none and more remain."""
        F = self.field
        sols = self.symmetric_functionals()
        units = []
        soc = self.socle_basis()
        for v in range(self.n):
            line = [x for x in soc if self.tgt[next(iter(x))] == v]
            if len(line) != 1:
                return False
            units.append(line[0])
        # image[s][v] = sols[s](u_v)
        image = []
        for f in sols:
            row = [F.zero] * self.n
            for v, u in enumerate(units):
                for k, c in u.items():
                    row[v] = F.add(row[v], F.mul(f[k], c))
            image.append(row)
        cols = [tuple(row[v] for row in image) for v in range(self.n)]
        if not sols or any(all(F.is_zero(c) for c in col) for col in cols):
            return False
        if not isinstance(F, PrimeField):
            return True
        p = F.p
        hyperplanes = set()
        for col in cols:
            lead = F.inv(next(c for c in col if not F.is_zero(c)))
            hyperplanes.add(tuple(F.mul(lead, c) for c in col))
        if len(hyperplanes) <= p:
            return True
        # W in reduced echelon form: a point of W with no zero coordinate
        # has a nonzero coefficient on every basis row (its pivot entry)
        span = make_span(F, self.n)
        for row in image:
            span.add(row)
        basis = span.basis_rows()
        points = product(range(1, p), repeat=len(basis))
        for coeffs in islice(points, SYMMETRY_SEARCH_LIMIT):
            if all(combine(F, coeffs, basis, self.n)):
                return True
        if (p - 1) ** len(basis) > SYMMETRY_SEARCH_LIMIT:
            raise AlgebraError(
                f"symmetry over GF({p}) is undecided after "
                f"{SYMMETRY_SEARCH_LIMIT} of the {p - 1}^{len(basis)} "
                "candidate functionals")
        return False

    # -- derived algebras ---------------------------------------------------

    def trivial_extension(self) -> "FiniteDimAlgebra":
        """A + D(A) with D(A) square zero; the dual of a block (i, j)
        element sits in block (j, i).  As (b_b f)(x) = f(x b_b) and
        (f b_a)(x) = f(b_a x), a term s b_l of b_a b_b puts s b_a* into
        b_b b_l* and s b_b* into b_l* b_a, so one pass over the table
        fills both."""
        d = self.dim
        src = self.src + [self.tgt[k] for k in range(d)]
        tgt = self.tgt + [self.src[k] for k in range(d)]
        labels = self.labels + [lbl + "*" for lbl in self.labels]
        dual: dict = {}
        for (a, b), row in self.table.items():
            for l, s in row:
                dual.setdefault((b, d + l), []).append((d + a, s))
                dual.setdefault((d + l, a), []).append((d + b, s))
        table = dict(self.table)
        for key, row in dual.items():
            table[key] = tuple(sorted(row))
        return FiniteDimAlgebra(self.field, self.vertex_labels, src, tgt,
                                labels, table)

    def opposite(self) -> "FiniteDimAlgebra":
        """The opposite algebra on the same basis: the table transposed,
        sources and targets swapped and the words reversed.  It is made
        once, and its opposite is this algebra."""
        if self._opposite is None:
            table = {(b, a): row for (a, b), row in self.table.items()}
            words = None if self.words is None else \
                [w[::-1] for w in self.words]
            op = FiniteDimAlgebra(self.field, self.vertex_labels, self.tgt,
                                  self.src, self.labels, table, words=words)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def quotient_by_ideal(self, generators: list[dict]) \
            -> "FiniteDimAlgebra":
        return self.quotient_with_projection(generators)[0]

    def quotient_with_projection(self, generators: list[dict]) \
            -> tuple["FiniteDimAlgebra", list[dict]]:
        """Quotient by the two-sided ideal generated by the given elements,
        together with the projection map: one element of the quotient (in
        its coordinates) per basis element of this algebra.  Idempotents of
        the original algebra may die (vertex quotients)."""
        F = self.field
        span = make_span(F, self.dim)
        queue = [g for g in generators if g]
        # A is generated by the idempotents and the arrows, so a subspace
        # closed under both products with them is a two-sided ideal
        gens = [self.e(i) for i in range(self.n)] + self.generators()
        while queue:
            x = queue.pop()
            if not span.add(self.as_vector(x)):
                continue
            for g in gens:
                for prod in (self.mul(g, x), self.mul(x, g)):
                    if prod:
                        queue.append(prod)
        # the basis elements that extend the ideal's basis in order survive:
        # the columns that are not last pivots of its echelon rows R_k
        pivots = sparse_echelon(F, map(enumerate, span.basis_rows()),
                                last=True)
        survivors = [k for k in range(self.dim) if k not in pivots]

        new_index = {k: i for i, k in enumerate(survivors)}
        vertex_labels = [self.vertex_labels[k] for k in survivors
                         if k < self.n]
        vmap = {}  # old vertex index -> new vertex index
        pos = 0
        for k in survivors:
            if k < self.n:
                vmap[k] = pos
                pos += 1
        src = []
        tgt = []
        for k in survivors:
            if self.src[k] not in vmap or self.tgt[k] not in vmap:
                raise AlgebraError(
                    "ideal is not vertex-graded compatibly")
            src.append(vmap[self.src[k]])
            tgt.append(vmap[self.tgt[k]])
        labels = [self.labels[k] for k in survivors]
        # a survivor maps to its unit; e_k for a pivot k is congruent to
        # e_k - R_k, which lies on the survivors: R_k is zero at every
        # other pivot
        proj_map = []
        for k in range(self.dim):
            row = pivots.get(k)
            if row is None:
                proj_map.append({new_index[k]: F.one})
            else:
                proj_map.append({new_index[s]: F.neg(x)
                                 for s, x in row.items() if s != k})
        # the products of survivors, projected term by term
        table: dict = {}
        for a, b in sorted(self.table):
            if a not in new_index or b not in new_index:
                continue
            acc: dict = {}
            for idx, s in self.table[(a, b)]:
                for j, c in proj_map[idx].items():
                    acc[j] = F.add(acc.get(j, F.zero), F.mul(s, c))
            row = tuple(sorted((j, c) for j, c in acc.items()
                               if not F.is_zero(c)))
            if row:
                table[(new_index[a], new_index[b])] = row
        B = FiniteDimAlgebra(F, vertex_labels, src, tgt, labels, table)
        return B, proj_map

    def vertex_quotient(self, removed_labels) -> "FiniteDimAlgebra":
        """A modulo the ideal generated by the idempotents of the given
        vertex labels.  Presented algebras are rebuilt from the restricted
        presentation; otherwise the structural quotient is taken."""
        removed = set(removed_labels)
        unknown = removed - set(self.vertex_labels)
        if unknown:
            raise AlgebraError(f"unknown vertices: {sorted(unknown)}")
        if not removed:
            return self
        if self.presentation is not None:
            sub = self.presentation.restricted_away_from(removed)
            return build_algebra(sub, self.field, lam=self.lam)
        gens = [self.e(self.vertex_labels.index(v)) for v in sorted(removed)]
        return self.quotient_by_ideal(gens)

    def radical_square_zero(self) -> "FiniteDimAlgebra":
        """A / J^2; J^2 is the ideal of the products of two generators."""
        gens = self.generators()
        squares = [p for g in gens for h in gens if (p := self.mul(g, h))]
        if not squares:
            return self
        return self.quotient_by_ideal(squares)

    # -- checks -------------------------------------------------------------

    def check_associativity(self) -> bool:
        """Exact check of (ab)c = a(bc) on all basis triples, plus the
        identity law."""
        F = self.field
        one = self.unit()
        for k in range(self.dim):
            x = {k: F.one}
            if self.mul(one, x) != x or self.mul(x, one) != x:
                return False
        for a, b, c in product(range(self.dim), repeat=3):
            left = self.mul(self.mul({a: F.one}, {b: F.one}), {c: F.one})
            right = self.mul({a: F.one}, self.mul({b: F.one}, {c: F.one}))
            if left != right:
                return False
        return True

    def __repr__(self):
        return (f"FiniteDimAlgebra(n={self.n}, dim={self.dim}, "
                f"field={self.field!r})")


# ---------------------------------------------------------------------------


def cartan_matrix(A: FiniteDimAlgebra) -> list[list[int]]:
    """C[i][j] = dim e_i A e_j."""
    return [[len(A.blocks.get((i, j), ())) for j in range(A.n)]
            for i in range(A.n)]


def _int_det(M: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    m = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_nonsingular(C: list[list[int]]) -> bool:
    return _int_det(C) != 0


def is_positive_definite(C: list[list[int]]) -> bool:
    """Positive definiteness of the quadratic form x^T C x, i.e. of the
    symmetrised matrix C + C^T (leading principal minors, exact)."""
    n = len(C)
    S = [[C[i][j] + C[j][i] for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        minor = [row[:k] for row in S[:k]]
        if _int_det(minor) <= 0:
            return False
    return True


def build_algebra(pres: Presentation, field: Field = QQ, lam=None) \
        -> FiniteDimAlgebra:
    """Path algebra modulo the given admissible relations, with basis the
    Groebner normal words (idempotents first, then words by length).
    AlgebraError is raised when the normal words are infinite in number,
    or when the completion reaches a leading word of 2 * MAX_WORD
    letters.

    Only the products w x of a normal word w and an arrow x are reduced.
    A prefix of a normal word is normal, so every longer normal word is
    w' x with w' normal, and as the normal form is linear and the
    relations span an ideal, w1 w' x reduces to the sum of c u x over the
    terms c u of the row of w1 w', read off rows already made: the words
    are sorted by length, so that row comes first.

    Those rows prove J nilpotent when the graph with an edge u -> m for
    each term m of the row of u x has no cycle: the support of a product
    of k arrows lies at the ends of walks of k - 1 steps in it.  Only a
    cycle leaves the question to the powers of _check_nilpotent."""
    pres.validate()
    F = field
    lam_scalar = None
    if pres.has_lambda:
        lam_scalar = F.of(2 if lam is None else lam)
        if F.is_zero(lam_scalar) or F.is_zero(F.sub(lam_scalar, F.one)):
            raise AlgebraError(
                "the parameter lambda must be different from 0 and 1")
    elif lam is not None:
        lam_scalar = F.of(lam)
    bound = pres.bind(F, lam_scalar)

    q = pres.quiver
    try:
        gb = NCGroebner(q, bound, F, cap=MAX_WORD)
        words = gb.normal_words()
    except CapInsufficient as exc:
        raise AlgebraError(f"no finite basis: {exc}") from None

    n = q.n
    basis_words: list[tuple[int, ...] | tuple] = [()] * n + words
    src = list(range(n)) + [q.vindex[q.word_src(w)] for w in words]
    tgt = list(range(n)) + [q.vindex[q.word_tgt(w)] for w in words]
    labels = [f"e{v}" for v in q.vertices] + [q.word_str(w) for w in words]
    index_of = {w: n + i for i, w in enumerate(words)}

    table: dict = {}
    for i in range(n):
        table[(i, i)] = ((i, F.one),)
    for i, w in enumerate(words):
        k = n + i
        table[(src[k], k)] = ((k, F.one),)
        table[(k, tgt[k])] = ((k, F.one),)
    # relation terms have at least two letters, so every arrow is a normal
    # word and no term of a reduced product is an idempotent
    arrows = [index_of[w] for w in words if len(w) == 1]
    by_arrow: dict = {}       # (word, arrow) -> reduced product
    for u, w in enumerate(words, n):
        for x in arrows:
            if tgt[u] == src[x]:
                nf = gb.reduce({w + basis_words[x]: F.one})
                by_arrow[(u, x)] = [(index_of[v], c) for v, c in nf.items()]
    for a in range(n, len(basis_words)):
        for b, w2 in enumerate(words, n):
            if tgt[a] != src[b]:
                continue
            if len(w2) == 1:
                terms = by_arrow[(a, b)]
            else:
                x = index_of[w2[-1:]]
                acc: dict = {}
                for u, c in table.get((a, index_of[w2[:-1]]), ()):
                    for m, s in by_arrow[(u, x)]:
                        acc[m] = F.add(acc.get(m, F.zero), F.mul(c, s))
                terms = [(m, c) for m, c in acc.items() if not F.is_zero(c)]
            if terms:
                table[(a, b)] = tuple(sorted(terms))
    A = FiniteDimAlgebra(F, list(q.vertices), src, tgt, labels, table,
                         presentation=pres, lam=lam_scalar,
                         words=basis_words)
    if _has_cycle((u, m) for (u, _), terms in by_arrow.items()
                  for m, _ in terms):
        _check_nilpotent(A)
    return A


def _check_nilpotent(A: FiniteDimAlgebra) -> None:
    """Reject input whose non-idempotent basis elements do not span a
    nilpotent ideal: the powers J^(k+1) = J^k (arrows), each kept only
    until the next is formed, must shrink until they reach zero.  A power
    is the sum of its blocks e_i J^k e_j, and an element of one block
    times an arrow lies in one block, so each power is eliminated block
    by block, over the columns of that block.  The build calls it only
    when its word x arrow graph has a cycle."""
    F = A.field
    arriving: dict[int, list[int]] = {}
    for a in A._arrows():
        arriving.setdefault(A.tgt[a], []).append(a)
    # block (i, j) -> basis of e_i J^k e_j
    current = {key: [{k: F.one} for k in cols if k >= A.n]
               for key, cols in A.blocks.items()}
    size = A.dim - A.n
    while size:
        # e_i J^(k+1) e_l is spanned by the x a with a: j -> l an arrow
        # and x in e_i J^k e_j
        nxt: dict = {}
        for (i, l), cols in A.blocks.items():
            span = make_span(F, len(cols))
            for a in arriving.get(l, ()):
                for x in current.get((i, A.src[a]), ()):
                    prod = A.mul(x, {a: F.one})
                    if prod:
                        span.add([prod.get(c, F.zero) for c in cols])
            nxt[(i, l)] = [{c: v for c, v in zip(cols, row)
                            if not F.is_zero(v)}
                           for row in span.basis_rows()]
        current = nxt
        size, before = sum(map(len, current.values())), size
        if size == before:
            raise AlgebraError(
                "the non-idempotent basis elements do not span a "
                "nilpotent ideal; the presentation is not admissible")
