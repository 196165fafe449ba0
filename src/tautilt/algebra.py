"""Finite-dimensional basic algebras by structure constants.

Every constructor maintains one invariant: the first n basis elements are
the vertex idempotents, the remaining ones span the Jacobson radical, and
each basis element lies in a single block e_i A e_j.  Elements are sparse
dicts {basis index: scalar}.
"""
from __future__ import annotations

import random
from itertools import islice, product

from .fields import QQ, Field, PrimeField
from .gbasis import CapInsufficient, NCGroebner
from .linalg import kernel, make_span
from .quiver import Presentation


class AlgebraError(ValueError):
    pass


# Most candidate functionals is_symmetric tries over GF(p).
SYMMETRY_SEARCH_LIMIT = 1 << 16


class FiniteDimAlgebra:
    def __init__(self, field: Field, vertex_labels, src, tgt, labels, table,
                 presentation: Presentation | None = None, lam=None,
                 words=None, cap: int | None = None):
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
        self.cap = cap
        self.blocks: dict[tuple[int, int], list[int]] = {}
        for k in range(self.dim):
            self.blocks.setdefault((self.src[k], self.tgt[k]), []).append(k)
        self._rad_layers = None

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

    # -- structural subspaces ----------------------------------------------

    def radical_layers(self) -> list[list[tuple]]:
        """Bases of J, J^2, ... down to the last nonzero power."""
        if self._rad_layers is not None:
            return self._rad_layers
        F = self.field
        rad_units = list(range(self.n, self.dim))
        current = []
        span = make_span(F, self.dim)
        for k in rad_units:
            v = [0] * self.dim
            v[k] = 1
            span.add(v)
        current = span.basis_rows()
        layers = [current]
        while current:
            nxt = make_span(F, self.dim)
            for row in current:
                x = self.as_element(row)
                for r in rad_units:
                    prod = self.mul(x, {r: F.one})
                    if prod:
                        nxt.add(self.as_vector(prod))
            nxt_rows = nxt.basis_rows()
            if len(nxt_rows) == len(current):
                # the powers stopped shrinking before reaching zero
                raise AlgebraError(
                    "the non-idempotent basis elements do not span a "
                    "nilpotent ideal; the presentation is not admissible")
            current = nxt_rows
            if current:
                layers.append(current)
        self._rad_layers = layers
        return layers

    def _diagonal(self) -> list[int]:
        """Basis elements with src = tgt: a functional vanishing on every
        [x, e_i], and an element commuting with every e_i, lives on them."""
        return [k for k in range(self.dim) if self.src[k] == self.tgt[k]]

    def _arrows(self) -> list[int]:
        """Basis indices of the radical generators()."""
        return [next(iter(g)) for g in self.generators()]

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
        F = self.field
        if self.words is not None:
            return [{k: F.one} for k in range(self.n, self.dim)
                    if len(self.words[k]) == 1]
        layers = self.radical_layers()
        span = make_span(F, self.dim)
        if len(layers) > 1:
            for row in layers[1]:
                span.add(row)
        gens = []
        for k in range(self.n, self.dim):
            v = [0] * self.dim
            v[k] = 1
            if span.add(v):
                gens.append({k: F.one})
        return gens

    # -- symmetry -----------------------------------------------------------

    def symmetric_functionals(self) -> list[tuple]:
        """Basis of {f in A* : f(ab) = f(ba) for all a, b}.  [A, A] is
        spanned by the [x, g] with g a generator (an idempotent or an
        arrow), since [x, yz] = [xy, z] + [zx, y].  The [x, e_i] span the
        off-diagonal blocks, so f lives on the diagonal ones; for an arrow
        a, [x, a] meets them only for x in the block (tgt a, src a)."""
        F = self.field
        diag = self._diagonal()
        col = {k: c for c, k in enumerate(diag)}
        rows = []
        for a in self._arrows():
            for x in self.blocks.get((self.tgt[a], self.src[a]), ()):
                row = [F.zero] * len(diag)
                for m, s in self.table.get((x, a), ()):
                    row[col[m]] = F.add(row[col[m]], s)
                for m, s in self.table.get((a, x), ()):
                    row[col[m]] = F.sub(row[col[m]], s)
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
            point = [sum(c * w[v] for c, w in zip(coeffs, basis)) % p
                     for v in range(self.n)]
            if all(point):
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
        element sits in block (j, i)."""
        F = self.field
        d = self.dim
        src = self.src + [self.tgt[k] for k in range(d)]
        tgt = self.tgt + [self.src[k] for k in range(d)]
        labels = self.labels + [lbl + "*" for lbl in self.labels]
        table: dict = {}
        for (a, b), row in self.table.items():
            table[(a, b)] = row
        # b_k . b_l* = sum_m [b_m b_k : b_l] b_m*
        for k in range(d):
            for l in range(d):
                row = []
                for m in range(d):
                    for idx, s in self.table.get((m, k), ()):
                        if idx == l:
                            row.append((d + m, s))
                if row:
                    table[(k, d + l)] = tuple(sorted(row))
        # b_l* . b_k = sum_m [b_k b_m : b_l] b_m*
        for k in range(d):
            for l in range(d):
                row = []
                for m in range(d):
                    for idx, s in self.table.get((k, m), ()):
                        if idx == l:
                            row.append((d + m, s))
                if row:
                    table[(d + l, k)] = tuple(sorted(row))
        return FiniteDimAlgebra(F, self.vertex_labels, src, tgt, labels,
                                table)

    def opposite(self) -> "FiniteDimAlgebra":
        if self.presentation is not None:
            return build_algebra(self.presentation.opposite(), self.field,
                                 lam=self.lam, cap=self.cap or 12)
        table = {(b, a): row for (a, b), row in self.table.items()}
        return FiniteDimAlgebra(self.field, self.vertex_labels, self.tgt,
                                self.src, self.labels, table)

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
        ideal_rows = span.basis_rows()
        ideal_dim = len(ideal_rows)

        # the basis elements that extend the ideal's basis survive
        proj = make_span(F, self.dim, track=True)
        for row in ideal_rows:
            proj.add(row)
        survivors = []
        for k in range(self.dim):
            v = [0] * self.dim
            v[k] = 1
            if proj.add(v):
                survivors.append(k)

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
        # a survivor is its own generator of proj; the rest need coords
        proj_map = []
        for k in range(self.dim):
            if k in new_index:
                proj_map.append({new_index[k]: F.one})
                continue
            v = [0] * self.dim
            v[k] = 1
            coords = proj.coords(v)
            proj_map.append({new_index[s]: c for s, c in
                             zip(survivors, coords[ideal_dim:])
                             if not F.is_zero(c)})
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
            return build_algebra(sub, self.field, lam=self.lam,
                                 cap=self.cap or 12)
        gens = [self.e(self.vertex_labels.index(v)) for v in sorted(removed)]
        return self.quotient_by_ideal(gens)

    def radical_square_zero(self) -> "FiniteDimAlgebra":
        layers = self.radical_layers()
        if len(layers) < 2:
            return self
        gens = [self.as_element(row) for row in layers[1]]
        return self.quotient_by_ideal(gens)

    # -- checks -------------------------------------------------------------

    def check_associativity(self, sample: int | None = None) -> bool:
        """Exact check of (ab)c = a(bc) on all basis triples (or a seeded
        sample), plus the identity law."""
        F = self.field
        one = self.unit()
        for k in range(self.dim):
            x = {k: F.one}
            if self.mul(one, x) != x or self.mul(x, one) != x:
                return False
        triples = [(a, b, c) for a in range(self.dim)
                   for b in range(self.dim) for c in range(self.dim)]
        if sample is not None and sample < len(triples):
            rng = random.Random(11)
            triples = rng.sample(triples, sample)
        for a, b, c in triples:
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


def build_algebra(pres: Presentation, field: Field = QQ, lam=None,
                  cap: int = 12) -> FiniteDimAlgebra:
    """Path algebra modulo the given admissible relations, with basis the
    Groebner normal words (idempotents first, then words by length).
    cap is the first path-length bound tried; it doubles up to 48 while
    the basis does not close below it, so it must be at least 1."""
    if cap < 1:
        raise AlgebraError(f"the path-length cap must be positive, got {cap}")
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
    gb = None
    words = None
    trial = cap
    while True:
        try:
            gb = NCGroebner(q, bound, F, cap=trial)
            words = gb.normal_words()
            break
        except CapInsufficient:
            if trial >= 48:
                raise AlgebraError(
                    f"no finite basis below the path-length cap 48; "
                    f"the presented algebra is likely infinite-dimensional")
            trial = min(48, trial * 2)

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
    for i, w1 in enumerate(words):
        a = n + i
        for j, w2 in enumerate(words):
            b = n + j
            if tgt[a] != src[b]:
                continue
            nf = gb.reduce({w1 + w2: F.one})
            row = tuple(sorted((index_of[w], c) for w, c in nf.items()))
            if row:
                table[(a, b)] = row
    A = FiniteDimAlgebra(F, list(q.vertices), src, tgt, labels, table,
                         presentation=pres, lam=lam_scalar,
                         words=basis_words, cap=trial)
    A.radical_layers()    # rejects non-admissible input (arrows not nilpotent)
    return A
