"""Finite-dimensional right modules over a constructed algebra.

A module is stored as a vertex-graded vector space (``vtx[i]`` is the vertex
index of the i-th basis line) together with one action matrix per algebra
basis element, acting on row vectors: x -> x . act[k].  All functionality is
exact over the algebra's field.

A minimal projective presentation P1 -> P0 -> M -> 0 is a TwoTermComplex,
as two-term silting complexes are the presentations of support tau-tilting
modules.  The translate is tau M = D Tr M: applying Hom(-, A) to the
presentation transposes its matrix (entries in e_t A e_s) into a two-term
complex over A.opposite(), which keeps A's basis, whose H^0 is the
transpose Tr M; the vector-space dual D of that (transposed action
matrices) is the translate as a right module again.
"""
from __future__ import annotations

from .algebra import FiniteDimAlgebra
from .complexes import TwoTermComplex
from .linalg import (kernel, last_pivot_rows, make_span, rank,
                     trace_radical)


class ModuleError(Exception):
    pass


# -- small dense matrix helpers over a field --------------------------------

def _mat_zero(F, r, c):
    return [[F.zero] * c for _ in range(r)]


def _mat_mul(F, X, Y):
    if not X:
        return []
    inner = len(Y)
    cols = len(Y[0]) if Y else 0
    out = _mat_zero(F, len(X), cols)
    for i, row in enumerate(X):
        for t in range(inner):
            c = row[t]
            if F.is_zero(c):
                continue
            yr = Y[t]
            oi = out[i]
            for j in range(cols):
                if not F.is_zero(yr[j]):
                    oi[j] = F.add(oi[j], F.mul(c, yr[j]))
    return out


def _row_mul(F, vec, X):
    cols = len(X[0]) if X else 0
    out = [F.zero] * cols
    for t, c in enumerate(vec):
        if F.is_zero(c):
            continue
        xr = X[t]
        for j in range(cols):
            if not F.is_zero(xr[j]):
                out[j] = F.add(out[j], F.mul(c, xr[j]))
    return out


def _transpose(X):
    if not X:
        return []
    return [list(col) for col in zip(*X)]


def _mat_rank(F, X):
    if not X or not X[0]:
        return 0
    return rank([list(r) for r in X], len(X[0]), F)


def _non_pivots(F, dim: int, rows) -> list[int]:
    """The unit vectors that extend the span of the rows, in order: the
    columns that are not last pivots of its echelon rows."""
    pivots = last_pivot_rows(F, rows)
    return [j for j in range(dim) if j not in pivots]


def _basis_coords(F, basis) -> tuple:
    """The pivots of a _homogeneous_basis and a reader of coordinates in
    it: the blocks' echelon rows have disjoint supports, so each row is the
    only one nonzero at its pivot, and a member's coefficient on it is read
    there."""
    pivots = [next(t for t, x in enumerate(r) if not F.is_zero(x))
              for r in basis]
    scales = [F.inv(r[j]) for r, j in zip(basis, pivots)]

    def coords(vec):
        return [F.mul(vec[j], c) for j, c in zip(pivots, scales)]
    return pivots, coords


def _projective_basis(A: FiniteDimAlgebra, vidx: int) -> list[int]:
    return [k for k in range(A.dim) if A.src[k] == vidx]


class Module:
    """Right module over a FiniteDimAlgebra."""

    def __init__(self, A: FiniteDimAlgebra, vtx, act):
        self.A = A
        self.vtx = list(vtx)
        self.act = act
        self.dim = len(self.vtx)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, A: FiniteDimAlgebra) -> "Module":
        return cls(A, [], [[] for _ in range(A.dim)])

    @classmethod
    def projective(cls, A: FiniteDimAlgebra, vertex_label) -> "Module":
        if vertex_label not in A.vertex_labels:
            raise ModuleError(f"unknown vertex {vertex_label!r}")
        F = A.field
        v = A.vertex_labels.index(vertex_label)
        basis = _projective_basis(A, v)
        pos = {k: i for i, k in enumerate(basis)}
        vtx = [A.tgt[k] for k in basis]
        m = len(basis)
        act = []
        for g in range(A.dim):
            # row i of the action of g is the product k g, one table row
            Mg = _mat_zero(F, m, m)
            for i, k in enumerate(basis):
                for kk, c in A.table.get((k, g), ()):
                    Mg[i][pos[kk]] = c
            act.append(Mg)
        return cls(A, vtx, act)

    @classmethod
    def simple(cls, A: FiniteDimAlgebra, vertex_label) -> "Module":
        if vertex_label not in A.vertex_labels:
            raise ModuleError(f"unknown vertex {vertex_label!r}")
        F = A.field
        v = A.vertex_labels.index(vertex_label)
        act = [[[F.one if g == v else F.zero]] for g in range(A.dim)]
        return cls(A, [v], act)

    @classmethod
    def from_action(cls, A: FiniteDimAlgebra, vtx, act) -> "Module":
        if isinstance(act, dict):
            act = [act[k] for k in range(A.dim)]
        M = cls(A, list(vtx), [[list(row) for row in X] for X in act])
        M.validate()
        return M

    @classmethod
    def direct_sum(cls, mods) -> "Module":
        mods = list(mods)
        if not mods:
            raise ModuleError("direct_sum needs at least one module")
        A = mods[0].A
        for M in mods:
            if M.A is not A:
                raise ModuleError("summands live over different algebras")
        F = A.field
        vtx = [v for M in mods for v in M.vtx]
        total = len(vtx)
        act = []
        for g in range(A.dim):
            big = []
            off = 0
            for M in mods:
                left = [F.zero] * off
                right = [F.zero] * (total - off - M.dim)
                big.extend(left + row + right for row in M.act[g])
                off += M.dim
            act.append(big)
        return cls(A, vtx, act)

    # -- basic data ---------------------------------------------------------

    def dim_vector(self) -> list[int]:
        out = [0] * self.A.n
        for v in self.vtx:
            out[v] += 1
        return out

    def act_element(self, x: dict):
        F = self.A.field
        out = _mat_zero(F, self.dim, self.dim)
        for k, c in x.items():
            Xk = self.act[k]
            for i in range(self.dim):
                for j in range(self.dim):
                    if not F.is_zero(Xk[i][j]):
                        out[i][j] = F.add(out[i][j], F.mul(c, Xk[i][j]))
        return out

    def validate(self) -> None:
        A, F = self.A, self.A.field
        if len(self.act) != A.dim:
            raise ModuleError("one action matrix per algebra basis element "
                              "is required")
        for k, X in enumerate(self.act):
            if len(X) != self.dim or any(len(r) != self.dim for r in X):
                raise ModuleError(f"action matrix {k} has the wrong shape")
            for i in range(self.dim):
                for j in range(self.dim):
                    if F.is_zero(X[i][j]):
                        continue
                    if self.vtx[i] != A.src[k] or self.vtx[j] != A.tgt[k]:
                        raise ModuleError(
                            f"action of basis element {k} violates the "
                            f"vertex grading at entry ({i}, {j})")
        for v in range(A.n):
            want = [[F.one if (i == j and self.vtx[i] == v) else F.zero
                     for j in range(self.dim)] for i in range(self.dim)]
            if self.act[v] != want:
                raise ModuleError(f"idempotent {v} must act as the "
                                  "projection onto its weight space")
        for a in range(A.dim):
            for b in range(A.dim):
                if A.tgt[a] != A.src[b]:
                    continue
                left = _mat_mul(F, self.act[a], self.act[b])
                right = self.act_element(A.mul({a: F.one}, {b: F.one}))
                if left != right:
                    raise ModuleError(
                        f"action is not multiplicative on the pair "
                        f"({A.labels[a]}, {A.labels[b]})")

    # -- homomorphisms ------------------------------------------------------

    def hom_basis(self, other: "Module") -> list:
        """Basis of A-linear maps self -> other, as matrices (x -> x.f)."""
        if self.A is not other.A:
            raise ModuleError("modules live over different algebras")
        A, F = self.A, self.A.field
        if self.dim == 0 or other.dim == 0:
            return []
        pairs = [(i, j) for i in range(self.dim) for j in range(other.dim)
                 if self.vtx[i] == other.vtx[j]]
        if not pairs:
            return []
        vpos = {p: t for t, p in enumerate(pairs)}
        rows = []
        for g in A.generators():
            Mg = self.act_element(g)
            Ng = other.act_element(g)
            for i in range(self.dim):
                for j in range(other.dim):
                    row = [F.zero] * len(pairs)
                    touched = False
                    for r in range(self.dim):
                        if (r, j) in vpos and not F.is_zero(Mg[i][r]):
                            t = vpos[(r, j)]
                            row[t] = F.add(row[t], Mg[i][r])
                            touched = True
                    for c in range(other.dim):
                        if (i, c) in vpos and not F.is_zero(Ng[c][j]):
                            t = vpos[(i, c)]
                            row[t] = F.sub(row[t], Ng[c][j])
                            touched = True
                    if touched:
                        rows.append(row)
        out = []
        for vec in kernel(rows, len(pairs), F):
            mat = _mat_zero(F, self.dim, other.dim)
            for t, (i, j) in enumerate(pairs):
                mat[i][j] = vec[t]
            out.append(mat)
        return out

    def hom_dim(self, other: "Module") -> int:
        return len(self.hom_basis(other))

    def is_iso(self, other: "Module") -> bool:
        """Isomorphism test; one of the two modules must be
        indecomposable.  If M = self is indecomposable, End(M) is local,
        and M = N via some phi, then Hom(M, N) = phi End(M) and its
        non-isomorphisms phi rad End(M) form a proper subspace, which
        cannot hold a whole basis: so some Hom basis element is bijective.
        The same holds with the roles swapped, as then both are
        indecomposable."""
        if self.A is not other.A:
            raise ModuleError("modules live over different algebras")
        if self.dim_vector() != other.dim_vector():
            return False
        if self.dim == 0:
            return True
        F = self.A.field
        return any(_mat_rank(F, h) == self.dim
                   for h in self.hom_basis(other))

    # -- endomorphism structure --------------------------------------------

    def end_is_local(self) -> bool:
        """Whether End is local: rad End, from the regular trace form on
        the basis of End made by the echelon rows of the Hom basis, has
        codimension one."""
        if self.dim == 0:
            return False
        F = self.A.field
        n = self.dim
        span = make_span(F, n * n)
        for h in self.hom_basis(self):
            span.add([x for row in h for x in row])
        basis = [[list(r[i * n:(i + 1) * n]) for i in range(n)]
                 for r in span.basis_rows()]
        mult = []        # mult[i][t]: coordinates of basis[i] . basis[t]
        for h in basis:
            coords = []
            for g in basis:
                prod = _mat_mul(F, h, g)
                coeffs = span.coords([x for row in prod for x in row])
                if coeffs is None:
                    raise ModuleError("endomorphisms failed to close under "
                                      "composition")
                coords.append(coeffs)
            mult.append(coords)
        return len(basis) - len(trace_radical(F, mult, ModuleError)) == 1

    def socle_rows(self) -> list[list]:
        """Rows spanning the socle {x : x a = 0 for every arrow a}."""
        F = self.A.field
        eqs = []
        for k in self.A._arrows():
            mat = self.act[k]
            for j in range(self.dim):
                eqs.append([mat[i][j] for i in range(self.dim)])
        return [list(v) for v in kernel(eqs, self.dim, F)]

    # -- sub and quotient structures ---------------------------------------

    def _homogeneous_basis(self, rows) -> list[tuple]:
        """Weight-homogeneous basis of the span of A-stable rows."""
        F = self.A.field
        out = []
        for v in range(self.A.n):
            block = make_span(F, self.dim)
            for r in rows:
                proj = [x if self.vtx[j] == v else F.zero
                        for j, x in enumerate(r)]
                if any(not F.is_zero(x) for x in proj):
                    block.add(proj)
            out.extend(block.basis_rows())
        return out

    def submodule(self, rows) -> tuple["Module", list]:
        """Module structure on the span of A-stable rows.
        Returns (module, basis rows inside self)."""
        F = self.A.field
        basis = self._homogeneous_basis(rows)
        span = make_span(F, self.dim)
        for r in basis:
            span.add(r)
        pivots, coords = _basis_coords(F, basis)
        vtx = [self.vtx[j] for j in pivots]
        # the basis is homogeneous, so the span is stable under A once it
        # is stable under the arrows, which generate the radical
        arrows = set(self.A._arrows())
        act = []
        for k in range(self.A.dim):
            Xk = self.act[k]
            mat = _mat_zero(F, len(basis), len(basis))
            for i, r in enumerate(basis):
                img = _row_mul(F, r, Xk)
                if k in arrows and not span.contains(img):
                    raise ModuleError("the given rows do not span a "
                                      "submodule")
                mat[i] = coords(img)
            act.append(mat)
        return Module(self.A, vtx, act), [list(r) for r in basis]

    def quotient(self, rows) -> "Module":
        """Quotient by the span of A-stable rows, on the unit vectors that
        are not last pivots of the span's echelon rows R_k."""
        F = self.A.field
        pivots = last_pivot_rows(F, rows)
        survivors = [j for j in range(self.dim) if j not in pivots]

        def residue(vec):
            """vec - sum_k vec[k] R_k, read at the survivors."""
            out = [vec[j] for j in survivors]
            for k, row in pivots.items():
                c = vec[k]
                if c:
                    out = [F.sub(x, F.mul(c, row[j]))
                           for x, j in zip(out, survivors)]
            return out

        # the span must be action-stable or the quotient action is bogus
        for row in pivots.values():
            for k in self.A._arrows():
                if any(residue(_row_mul(F, row, self.act[k]))):
                    raise ModuleError("the given rows do not span a "
                                      "submodule")
        act = [[residue(self.act[k][j]) for j in survivors]
               for k in range(self.A.dim)]
        return Module(self.A, [self.vtx[j] for j in survivors], act)

    # -- covers, presentations, translate ----------------------------------

    def radical_rows(self) -> list:
        """Spanning rows of M . rad(A), the sum of M . a over the arrows."""
        F = self.A.field
        span = make_span(F, self.dim)
        for k in self.A._arrows():
            for row in self.act[k]:
                if any(not F.is_zero(x) for x in row):
                    span.add(row)
        return [list(r) for r in span.basis_rows()]

    def _top(self) -> list[int]:
        """The basis lines whose unit vectors extend M . rad(A) in order,
        which map onto a basis of the top: the columns that are not last
        pivots of the radical's echelon rows."""
        return _non_pivots(self.A.field, self.dim, self.radical_rows())

    def proj_cover(self):
        """Minimal projective cover, one slot per basis line of _top(),
        which generates M.
        Returns (slot vertex labels, P0 module, cover matrix P0.dim x m)."""
        A = self.A
        gen_positions = self._top()
        slots = [A.vertex_labels[self.vtx[j]] for j in gen_positions]
        if not slots:
            return [], Module.zero(A), []
        P0 = Module.direct_sum([Module.projective(A, s) for s in slots])
        # slot j's basis element b_k maps to line j . b_k, row j of act[k]
        cover = [list(self.act[k][j]) for j in gen_positions
                 for k in _projective_basis(A, self.vtx[j])]
        return slots, P0, cover

    def min_presentation(self) -> TwoTermComplex:
        """Minimal projective presentation P1 -> P0 -> M -> 0 as the
        two-term complex with neg P1 and zero P0: P0 is the proj_cover,
        and the kernel K of the cover is a submodule of P0 whose top lines
        generate it, one slot of P1 each; the row of such a line in P0 is
        that slot's column of the differential.  K's top is read as in
        _top(), off the images of K's basis under the arrows alone, so no
        other action matrix of K is built."""
        A, F = self.A, self.A.field
        slots0, P0, cover = self.proj_cover()
        if not slots0:
            return TwoTermComplex(A, [], [], [])
        ker_rows = kernel(_transpose(cover), P0.dim, F)
        if not ker_rows:
            return TwoTermComplex(A, [], slots0, [[] for _ in slots0])
        khom = P0._homogeneous_basis(ker_rows)
        pivots, coords = _basis_coords(F, khom)
        rad = [coords(_row_mul(F, r, P0.act[k]))
               for k in A._arrows() for r in khom]
        top = _non_pivots(F, len(khom), rad)
        slots1 = [A.vertex_labels[P0.vtx[pivots[j]]] for j in top]
        entries = []
        off = 0
        for s in slots0:
            basis = _projective_basis(A, A.vertex_labels.index(s))
            entries.append([{k: c for k, c in zip(basis, khom[j][off:])
                             if not F.is_zero(c)} for j in top])
            off += len(basis)
        return TwoTermComplex(A, slots1, slots0, entries)

    def tau(self) -> "Module":
        """The translate D Tr M.  Tr M is H^0 of the transposed minimal
        presentation Hom(P0, A) -> Hom(P1, A), a two-term complex over
        A.opposite() (whose product is A's reversed, so its differential
        acts as A's entries by right multiplication); D transposes the
        action matrices.  A projective M has P1 = 0, so Tr M = 0."""
        P = self.min_presentation()
        tr = TwoTermComplex(self.A.opposite(), P.zero, P.neg,
                            _transpose(P.d)).h0_module()
        return Module(self.A, tr.vtx, [_transpose(X) for X in tr.act])

    def __repr__(self) -> str:
        return f"Module(dim_vector={self.dim_vector()})"


def is_stau_pair(A: FiniteDimAlgebra, summands, removed_labels) -> bool:
    """Whether (sum of summands, sum of projectives at removed vertices)
    is a support pair: indecomposable pairwise non-isomorphic summands
    avoiding the removed vertices, no maps into the translate, and the
    summand count filling up the number of vertices."""
    summands = list(summands)
    removed = list(removed_labels)
    if len(set(removed)) != len(removed):
        return False
    for v in removed:
        if v not in A.vertex_labels:
            raise ModuleError(f"unknown vertex {v!r}")
    if len(summands) + len(removed) != A.n:
        return False
    removed_idx = {A.vertex_labels.index(v) for v in removed}
    for M in summands:
        if M.A is not A or M.dim == 0:
            return False
        dv = M.dim_vector()
        if any(dv[i] for i in removed_idx):
            return False
        if not M.end_is_local():
            return False
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            if summands[i].is_iso(summands[j]):
                return False
    taus = [M.tau() for M in summands]
    for M in summands:
        for T in taus:
            if T.dim and M.hom_dim(T):
                return False
    return True
