"""Breadth-first enumeration of the mutation graph of two-term silting
complexes.

Nodes are keyed by the sorted tuple of g-vectors of their summands; this
is a complete isomorphism invariant for the objects the search visits, so
the walk closes up exactly when the graph is finite.  For the same reason
each walk keeps one SummandTable: every summand of every node is the
table's canonical complex for its g-vector, and the complex itself, HomK,
End radicals and H^0 dimension vectors are built once per g-vector (or
ordered pair of g-vectors) rather than once per mutation result.  Edges
are stored left-oriented: (source key, summand position, target key)
means mutating the source at that position is the arrow-direction (left)
exchange.

Mutation runs only to discover a node; each new node costs one mutation,
a shift read off the payload, or a known summand certified as the other
completion, by co-occurrence or by two H^1 checks.  An almost complete
two-term presilting object has exactly two completions
(Adachi-Iyama-Reiten), so the walk keeps a facet index from each facet
(a node's summands minus one) to the nodes holding it, and a task whose
facet already has a second node takes that node as its target without
mutating.  Each canonical complex of the walk gets one bit when the walk
first sees it, in a dict local to the walk (nothing is stored on the
complexes), and a node's summand mask is the OR of its summands' bits.
The facet that leaves out a summand is keyed by the int mask ^
bit(summand), and holds an immutable tuple of (node key, position)
pairs, so the index is ints and tuples of keys, which the cyclic garbage
collector need not traverse.  When a task's facet has no second node and
the H^0 support of its module part misses a vertex v of the node's
support, the second completion adds P_v to the projective part: the new
summand is the shifted projective P_v[1], read off the node's H^0
dimension vector, and no approximation is built.

Otherwise the walk asks whether it already knows the other completion.
Summands that sit together in one node are pairwise compatible (Hom(X,
Y[1]) = 0 both ways), and Hom is additive, so a known summand Y that has
shared some node with each summand of a facet F makes Y + F presilting.
It has n non-isomorphic summands when Y is not in the node, so it is
silting (Adachi-Iyama-Reiten), and it is F's other completion.  Each
summand's compatibility mask, local to the walk like its bit, is the OR
of the masks of every node recorded with it; the AND of the masks of the
facet's summands, less the bits given out to no summand and those of the
node, leaves Y's bit alone, or nothing, and only nothing calls mutate.
Two bits left contradict the two-completion theorem and raise
EngineError.  The certified Y is the summand the mutation would build,
so the walk's nodes, edges and truncation order do not change.

When no bit is left, a known summand Y may still have shared a node with
every summand of the facet but one, S (`_certified_near`).  Then only
Hom(Y, S[1]) = Hom(S, Y[1]) = 0 is unproved, and hom_homotopy reads each
off the rank of d^0 of the Hom complex, with no HomK; if both hold, Y +
F is presilting with n summands, so silting, and F's other completion
(Adachi-Iyama-Reiten).  The candidates for each S are read off prefix and
suffix ANDs of the facet's masks.  Before any algebra a candidate must
pass a g-vector filter: the exchange triangle of the completion gives
g(Y) = sum m_j g_j - g(X) with m_j >= 0, so g(Y).c_k = -1 and g(Y).c_j >=
0 for j != k, read off the node's c-vectors.  Only a task with no
certified summand calls mutate.

A mutation replaces one summand, so a new node is built from its parent
and that one change rather than from its whole summand list: its
summand list is the parent's with the one swap, its removed and support
are the parent's unless a shifted projective left or came in, and its H^0
dimension vector is the parent's minus the old summand's plus the new
one's.  Its summand mask is the parent's facet mask OR the new summand's
bit, and its facet at the new summand is the facet its parent mutated at,
so it joins that facet's holders.  The new node's own task at that facet
would find its parent and add the edge the parent's mutation added, so it
is skipped.

The direction of every edge is read off the c-vectors, the columns of
G^-1 for the g-matrix G whose rows are the key: they are sign-coherent,
and mutation at position k goes left exactly when column k is >= 0.  A
computed mutation is asked for that direction only.  G^-1 is exact ints.
The exchange g-vector g' must satisfy g'.c_k = -1 (so det G' = -det G),
or the walk raises EngineError when it finds the child; the child's G^-1
is its parent's after a rank-one update, made when the child is
expanded, so a truncated walk makes none for the nodes it never expands.

The search is layered and serial: each layer's tasks are sorted and run
in that order, so the order alone fixes which nodes a truncated walk
keeps.  A task may find its facet's other holder among the nodes found
earlier in its own layer as well as in earlier layers; the sorted order
makes that the same on every run.  A walk starts no worker thread or
process, whatever `threads` says.  Only `strata_counts` uses it: its two
jobs, the walks of A and of A.opposite(), are mapped over at most
min(threads, 2) worker processes and read back in that order, so the
answer and the first error are those of the serial run.  At `threads=1` they run in the calling process.
Strata, support-rank slices and the gluing subset need closed walks, and
one check (`_closed_walk`) raises WalkTruncated on a cut-off walk.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import add, mul, neg, sub

from .algebra import FiniteDimAlgebra
from .complexes import SummandTable, TwoTermComplex, hom_homotopy, mutate


class EngineError(RuntimeError):
    pass


class WalkTruncated(EngineError):
    """A walk that must close was cut off by its node budget."""


@dataclass(frozen=True)
class Count:
    """Node count of an exchange graph; exact when the walk closed up."""
    value: int
    exact: bool

    def __str__(self):
        tag = "Finite" if self.exact else "AtLeast"
        return f"{tag}({self.value})"


@dataclass
class GraphNode:
    key: tuple          # sorted g-vectors of the summands
    summands: list      # TwoTermComplex list, sorted to match key
    removed: tuple      # vertex labels carried only by shifted stalks
    support: tuple      # the remaining vertex labels
    h0_dims: list       # dimension vector of the degree-zero homology


class ExchangeGraph:
    def __init__(self, A: FiniteDimAlgebra, limit: int):
        self.A = A
        self.limit = limit
        self.nodes: dict[tuple, GraphNode] = {}
        self.edges: set[tuple] = set()
        self.complete = True
        # nodes discovered, by a mutation, a shift read off the payload or
        # a certified completion
        self.expansions = 0
        self.table = SummandTable(A)

    def count(self) -> Count:
        return Count(len(self.nodes), self.complete)


def _removed_support(A: FiniteDimAlgebra, summands) -> tuple:
    """The vertex labels carried only by shifted stalks, and the rest."""
    removed = tuple(sorted(v for t in summands if not t.zero for v in t.neg))
    return removed, tuple(v for v in A.vertex_labels if v not in removed)


def _node_payload(A: FiniteDimAlgebra, summands, parent=None, pos=0, at=0,
                  key=None) -> GraphNode:
    """The node with the given summands.  Without a parent they may come in
    any order, and every field is read off them.  A child passes its
    summands in key order, its key, and the parent whose summand at pos it
    replaced by summands[at]: its removed and support are the parent's
    unless a shifted projective left or came in, and its H^0 vector is the
    parent's minus the old summand's plus the new one's."""
    dims = [0] * A.n    # exact size: a list grown from an iterator is not
    if parent is None:
        summands = sorted(summands, key=TwoTermComplex.g_vector)
        key = tuple(map(TwoTermComplex.g_vector, summands))
        removed, support = _removed_support(A, summands)
        dims[:] = map(sum, zip(*[t.h0_dims() for t in summands]))
        return GraphNode(key, summands, removed, support, dims)
    old, new = parent.summands[pos], summands[at]
    if old.zero and new.zero:
        removed, support = parent.removed, parent.support
    else:
        removed, support = _removed_support(A, summands)
    dims[:] = map(sub, map(add, parent.h0_dims, new.h0_dims()),
                  old.h0_dims())
    return GraphNode(key, summands, removed, support, dims)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _direction(c) -> str:
    """The mutation direction a c-vector gives: left when it is >= 0."""
    if min(c) >= 0:
        return "left"
    if max(c) <= 0:
        return "right"
    raise EngineError(f"c-vector {c} is not sign-coherent")


def _exchanged(key, cvecs, pos, new_g):
    """Key of the node that replaces key[pos] by new_g, and the position of
    new_g in that key.  The new g-matrix is unimodular only when
    g'.c_k = -1 for c_k = cvecs[pos]; its c-vectors are made by
    _updated_cvecs when the node is expanded."""
    d = _dot(new_g, cvecs[pos])
    if d != -1:
        raise EngineError(f"exchange g-vector {new_g} at position {pos} of "
                          f"{key} gives g'.c = {d}, not -1")
    gs = list(key)
    del gs[pos]
    at = bisect_left(gs, new_g)
    gs.insert(at, new_g)
    return tuple(gs), at


def _updated_cvecs(cvecs, pos, new_g, at):
    """C-vectors of the node that replaced the summand at pos of a node
    with c-vectors cvecs by new_g, now at position at: with c_k =
    cvecs[pos], the rank-one update of G^-1 gives c_j + (g'.c_j) c_k for
    j != k and -c_k at k."""
    ck = cvecs[pos]
    cs = []
    for cj in cvecs[:pos] + cvecs[pos + 1:]:
        m = _dot(new_g, cj)
        cs.append(tuple([a + m * b for a, b in zip(cj, ck)]) if m else cj)
    cs.insert(at, tuple(map(neg, ck)))
    return cs


def _index_facets(facets: dict, compat: dict, bits: dict, key: tuple,
                  mask: int, summands) -> None:
    """Record the node with this key, summands and summand mask under each
    of its facets, and OR the mask into each summand's compatibility mask
    compat[summand].  Each canonical complex of the walk has one bit in
    `bits`, and a node's mask is the OR of its summands' bits, so the facet
    leaving out the summand at p is keyed by the int mask ^ bits[summand].
    Its holders are a tuple of (node key, p) pairs, in the order the nodes
    were recorded; the node joins its end."""
    for p, s in enumerate(summands):
        f = mask ^ bits[s]
        facets[f] = facets.get(f, ()) + ((key, p),)
        compat[s] = compat.get(s, 0) | mask


def _shift_read_off(table: SummandTable, node: GraphNode, pos: int,
                    direction: str):
    """The shifted projective P_v[1] that replaces the module summand X at
    pos when the H^0 support of the other summands misses a vertex v of
    the node's support, as the table's canonical complex (built only when
    the table has none); None when it misses none, or X is itself
    shifted.  The almost complete pair then has (M/X, P + P_v) as its
    other completion (Adachi-Iyama-Reiten), a left mutation that loses
    exactly v, so another direction or a second lost vertex raises
    EngineError."""
    X = node.summands[pos]
    if not X.zero:
        return None
    lost = [v for v, (d, x) in enumerate(zip(node.h0_dims, X.h0_dims()))
            if d and d == x]
    if not lost:
        return None
    A = table.A
    labels = [A.vertex_labels[v] for v in lost]
    if len(lost) > 1:
        raise EngineError(f"summand {pos} of {node.key} carries all of H^0 "
                          f"at more than one vertex: {labels}")
    if direction != "left":
        raise EngineError(f"summand {pos} of {node.key} carries all of H^0 "
                          f"at {labels[0]!r}, but its c-vector goes "
                          f"{direction}")
    return table.complex_of(lost, [], [])


def _certified(compat: dict, owners: list, node: GraphNode, pos: int,
               mask: int):
    """The known summand that completes the facet of the node (mask) at
    pos to its other node, or None.  compat[s] is the OR of the masks of
    the nodes recorded with s, and owners[i] the complex with bit 1 << i;
    a bit the walk gave out, set in compat[s] for every summand s of the
    facet and not in mask, is a summand Y other than the one at pos that
    has shared a node with each summand of the facet.  Y plus the facet is
    then presilting with n summands, hence silting, and it is the facet's
    other completion (Adachi-Iyama-Reiten); a second such bit raises
    EngineError."""
    common = (1 << len(owners)) - 1
    for p, s in enumerate(node.summands):
        if p != pos:
            common &= compat[s]
    common &= ~mask
    if not common:
        return None
    if common & (common - 1):
        raise EngineError(f"facet of {node.key} at summand {pos} has "
                          f"{common.bit_count()} known completions "
                          "besides the node")
    return owners[common.bit_length() - 1]


def _certified_near(compat: dict, owners: list, node: GraphNode, pos: int,
                    mask: int, cvecs):
    """The known summand Y, not in the node (mask), that completes its
    facet at pos and has shared a node with every summand of the facet but
    one, S, or None.  The candidates for each S are the given-out bits set
    in compat of every other facet summand and not in compat[S], read off
    prefix and suffix ANDs.  Y's exchange triangle gives g(Y) = sum m_j
    g_j - g(X) with m_j >= 0, so a candidate with g(Y).c_k != -1 or some
    g(Y).c_j < 0 (c = cvecs, k = pos) is dropped without any algebra.  A
    candidate with Hom(Y, S[1]) = Hom(S, Y[1]) = 0 is compatible with the
    whole facet, so it is the facet's other completion
    (Adachi-Iyama-Reiten).  The newest candidate is tried first: on the
    A3, L10 and ladder-5 walks that takes fewer H^1 checks than the
    oldest first."""
    facet = node.summands[:pos] + node.summands[pos + 1:]
    masks = [compat[s] for s in facet]
    given = ((1 << len(owners)) - 1) & ~mask
    # after[i]: the given bits set in the masks of every summand after i
    after = [given]
    for m in reversed(masks[1:]):
        after.append(after[-1] & m)
    after.reverse()
    before = given
    ck, others = cvecs[pos], cvecs[:pos] + cvecs[pos + 1:]
    for S, m, rest in zip(facet, masks, after):
        near = before & rest & ~m
        before &= m
        while near:
            top = near.bit_length() - 1
            near ^= 1 << top
            Y = owners[top]
            gy = Y.g_vector()
            if _dot(gy, ck) != -1 or any(_dot(gy, c) < 0 for c in others):
                continue
            if hom_homotopy(Y, S, 1) == 0 and hom_homotopy(S, Y, 1) == 0:
                return Y
    return None


def _check_budget(limit: int, threads: int = 1):
    if limit < 1:
        raise EngineError("node limit must be positive")
    if threads < 1:
        raise EngineError("thread count must be positive")


def enumerate_graph(A: FiniteDimAlgebra, limit: int = 100000,
                    threads: int = 1) -> ExchangeGraph:
    """Walk the mutation graph from the stalk node until it closes up or
    the node budget is hit (graph.complete goes False).  The walk runs in
    the calling thread; threads must be positive and is otherwise
    unused."""
    _check_budget(limit, threads)
    g = ExchangeGraph(A, limit)
    start = _node_payload(A, [g.table.canonical(TwoTermComplex.stalk(A, v))
                              for v in A.vertex_labels])
    g.nodes[start.key] = start
    # one bit per canonical complex, given when the walk first sees it:
    # owners[i] has bit 1 << i, and compat[s] is the OR of the masks of
    # the nodes recorded with s
    owners = list(start.summands)
    bits = {s: 1 << i for i, s in enumerate(owners)}
    facets: dict[int, tuple] = {}
    compat: dict = {}
    mask = (1 << A.n) - 1
    _index_facets(facets, compat, bits, start.key, mask, start.summands)
    # each pending node: its parent's c-vectors and the position its
    # parent mutated at, its GraphNode, its summand mask and the position
    # whose task its parent answered; the start holds its own c-vectors
    # and None: the stalk g-vectors are the unit vectors, so G^-1 is G
    # transposed and its columns are the rows of G
    layer = {start.key: (list(start.key), None, start, mask, None)}
    while layer:
        found = {}
        for key in sorted(layer):
            # dropped once read, so only unexpanded nodes are held
            cvecs, parent_pos, node, mask, answered = layer.pop(key)
            if answered is not None:
                cvecs = _updated_cvecs(cvecs, parent_pos, key[answered],
                                       answered)
            for pos in range(A.n):
                if pos == answered:
                    # the facet's other holder is the parent, and their
                    # edge was added when the parent mutated
                    continue
                direction = _direction(cvecs[pos])
                facet = mask ^ bits[node.summands[pos]]
                dst = None
                for other, other_pos in facets[facet]:
                    if other != key:
                        dst, pos_back = other, other_pos
                        break
                if dst is None:
                    if len(g.nodes) >= limit:
                        g.complete = False
                        continue
                    g.expansions += 1
                    new = _shift_read_off(g.table, node, pos, direction)
                    if new is None:
                        new = _certified(compat, owners, node, pos, mask)
                    if new is None:
                        new = _certified_near(compat, owners, node, pos,
                                              mask, cvecs)
                    if new is None:
                        new = mutate(node.summands, pos, direction,
                                     table=g.table)[0][pos]
                    summands = node.summands[:pos] + node.summands[pos + 1:]
                    dst, pos_back = _exchanged(key, cvecs, pos,
                                               new.g_vector())
                    summands.insert(pos_back, new)
                    child = g.nodes[dst] = _node_payload(
                        A, summands, node, pos, pos_back, dst)
                    if new not in bits:
                        bits[new] = 1 << len(owners)
                        owners.append(new)
                    child_mask = facet | bits[new]
                    _index_facets(facets, compat, bits, dst, child_mask,
                                  summands)
                    found[dst] = (cvecs, pos, child, child_mask, pos_back)
                if direction == "left":
                    g.edges.add((key, pos, dst))
                else:
                    g.edges.add((dst, pos_back, key))
        if not g.complete:
            break
        layer = found
    return g


def count(A: FiniteDimAlgebra, limit: int = 100000) -> Count:
    return enumerate_graph(A, limit).count()


# -- strata by support ------------------------------------------------------


@dataclass
class StrataTable:
    """Node counts grouped by the removed vertex set; every one of the
    2^n subsets appears (each stratum holds at least its projectives)."""
    counts: dict
    total: int


def _closed_walk(A: FiniteDimAlgebra, limit) -> ExchangeGraph:
    """The exchange graph of A, walked to closure; raises WalkTruncated
    when the node budget cuts the walk off."""
    g = enumerate_graph(A, limit)
    if not g.complete:
        raise WalkTruncated("exchange graph truncated; raise the limit")
    return g


def _stratum_tally(A: FiniteDimAlgebra, limit, dual) -> tuple[dict, int]:
    """Node counts by stratum, and the node count, of one walk; only these
    leave the job, not the graph.  A node of A is keyed by its removed
    vertex set.  With dual the walk is of A.opposite(), and a node is
    keyed by the vertices v whose projective P_v is a degree-zero summand,
    that is whose unit g-vector e_v is in its key."""
    B = A.opposite() if dual else A
    g = _closed_walk(B, limit)
    units = {tuple(int(i == v) for i in range(B.n)): label
             for v, label in enumerate(B.vertex_labels)}
    tally: dict = {}
    for node in g.nodes.values():
        key = frozenset(units[gv] for gv in node.key if gv in units) \
            if dual else frozenset(node.removed)
        tally[key] = tally.get(key, 0) + 1
    return tally, len(g.nodes)


def strata_counts(A: FiniteDimAlgebra, limit: int = 100000,
                  threads: int = 1) -> StrataTable:
    """Group the nodes by their removed vertex set, and insist that every
    one of the 2^n strata, the empty set's included, equals its dual:
    X -> Hom_A(X, A)[1] maps the nodes of A one-to-one onto those of
    A.opposite(), and takes the removed set of X to the vertices v whose
    P_v is a degree-zero summand (Adachi-Iyama-Reiten).

    The two walks are independent jobs, run in the calling process at
    threads=1, A first, and otherwise mapped over min(threads, 2) worker
    processes; map yields results and raises errors in job order, so the
    table and the first error do not depend on `threads`.  Leaving the
    pool waits for a running walk: a worker killed while it writes a
    result would leave the result queue locked.  Workers are forked when
    the caller runs no other thread (fork is unsafe in a threaded
    process), and the executor then starts them all before its own helper
    threads; otherwise they are spawned, each with a fresh interpreter
    and import (about 0.1 s)."""
    _check_budget(limit, threads)
    jobs = (False, True)
    if threads == 1:
        tallies = [_stratum_tally(A, limit, dual) for dual in jobs]
    else:
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        fork = (threading.active_count() == 1
                and "fork" in multiprocessing.get_all_start_methods())
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        with ProcessPoolExecutor(min(threads, len(jobs)),
                                 mp_context=ctx) as pool:
            tallies = list(pool.map(_stratum_tally, (A, A), (limit, limit),
                                    jobs))
    (tally, total), (dual, _) = tallies
    labels = list(A.vertex_labels)
    for r in range(len(labels) + 1):
        for subset in itertools.combinations(labels, r):
            expected = tally.get(frozenset(subset), 0)
            got = dual.get(frozenset(subset), 0)
            if got != expected:
                raise EngineError(
                    f"stratum {set(subset)} disagrees: {expected} from "
                    f"the walk of A, {got} from the walk of its opposite")
    return StrataTable(tally, total)


def support_rank_slices(A: FiniteDimAlgebra, max_rank: int,
                        limit: int = 100000) -> list[int]:
    """Node counts sliced by support size, one slice per rank from 0 to
    max_rank.  Each slice sums full-support counts over the quotients of
    the right size, so slices stay computable when the whole graph is
    infinite.  The quotients are walked in the calling process, the
    largest first; a quotient's full-support count is its empty-set
    stratum, and rank 0 holds one node, the shifted A[1]."""
    labels = list(A.vertex_labels)
    n = len(labels)
    if not 0 <= max_rank <= n:
        raise EngineError(f"rank must lie between 0 and {n}")
    _check_budget(limit)
    out = [1] + [0] * max_rank
    for r in range(max_rank, 0, -1):
        for subset in itertools.combinations(labels, n - r):
            B = A.vertex_quotient(list(subset))
            out[r] += _stratum_tally(B, limit, False)[0][frozenset()]
    return out


# -- gluing subset at a projective with simple socle ------------------------


def _socle_generator(A: FiniteDimAlgebra, vertex) -> dict:
    """The socle of the indecomposable projective at the vertex as an
    algebra element; raises unless that socle is simple."""
    v = A.vertex_labels.index(vertex)
    soc = [x for x in A.socle_basis() if A.src[next(iter(x))] == v]
    if len(soc) != 1:
        raise EngineError(
            f"projective at {vertex!r} has socle of length {len(soc)}, "
            "need a simple socle")
    return soc[0]


def _pullback_module(A: FiniteDimAlgebra, proj, M):
    """B-module viewed as a module over A along the projection A -> B
    (proj gives the image of each basis element of A)."""
    from .modules import Module
    return Module(A, M.vtx, [M.act_element(x) for x in proj])


def adachi_subset(A: FiniteDimAlgebra, vertex,
                  limit: int = 100000) -> list[GraphNode]:
    """Nodes N of the graph over B = A modulo the socle of P = P(vertex)
    whose module part contains P/soc P and admits no nonzero map to P
    over A.  These are exactly the nodes the quotient graph gains over
    the original one in the gluing comparison.  P/soc P is the projective
    of B at the vertex, so its complex is the stalk with unit g-vector,
    and a module part contains it exactly when the node's key holds that
    g-vector."""
    from .modules import Module
    if vertex not in A.vertex_labels:
        raise EngineError(f"unknown vertex {vertex!r}")
    P = Module.projective(A, vertex)
    x = _socle_generator(A, vertex)
    B, proj = A.quotient_with_projection([x])
    if B.n != A.n:
        raise EngineError("socle ideal kills an idempotent")
    vB = B.vertex_labels.index(vertex)
    if len(B.proj_basis[vB]) != P.dim - 1:
        raise EngineError(
            "socle ideal meets the projective beyond its socle")
    g = _closed_walk(B, limit)
    unit = tuple(int(i == vB) for i in range(B.n))
    members = []
    for key in sorted(g.nodes):
        node = g.nodes[key]
        if unit in key and all(
                _pullback_module(A, proj, t.h0_module()).hom_dim(P) == 0
                for t in node.summands if t.zero):
            members.append(node)
    return members
