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
or a shift read off the payload.  An almost complete two-term presilting
object has exactly two completions (Adachi-Iyama-Reiten), so the walk
keeps a facet index from each facet (a node's summands minus one;
canonical complexes hash by identity, so this costs one pointer hash per
summand, not one per g-vector entry) to the nodes holding it, and a task
whose facet already has a second node takes that node as its target
without mutating.  Each pending node keeps its facets' holder lists, so
a task reads its facet without a lookup.  When a task's facet has no
second node and the H^0 support of its module part misses a vertex v of
the node's support, the second completion adds P_v to the projective
part: the new summand is the shifted projective P_v[1], read off the
node's H^0 dimension vector, and no approximation is built.

A mutation replaces one summand, so a new node is built from its parent
and that one change rather than from its whole summand list: its
summand list is the parent's with the one swap, its removed and support
are the parent's unless a shifted projective left or came in, and its H^0
dimension vector is the parent's minus the old summand's plus the new
one's.  Its facet at the new summand is the facet its parent mutated at,
so it joins that holder list and only its other n - 1 facets are keyed.
The new node's own task at that facet would find its parent and add the
edge the parent's mutation added, so it is skipped.

The direction of every edge is read off the c-vectors, the columns of
G^-1 for the g-matrix G whose rows are the key: they are sign-coherent,
and mutation at position k goes left exactly when column k is >= 0.  A
computed mutation is asked for that direction only.  G^-1 is kept, as
exact ints, only for the nodes whose tasks are pending; a child's is its
parent's after a rank-one update, and the exchange g-vector g' must
satisfy g'.c_k = -1 (so det G' = -det G), or the walk raises EngineError.

The search is layered and serial: each layer's tasks are sorted and run
in that order, so the order alone fixes which nodes a truncated walk
keeps.  A task only looks at a node merged in an earlier layer.  A walk
starts no worker thread or process, whatever `threads` says.  Only
`strata_counts` uses it: its two walks, of A and of A.opposite(), are
independent, run in a pool of min(threads, 2) worker processes and read
back in that order, so the answer and the first error are those of the
serial run.  At `threads=1` they run in the calling process.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from operator import add, mul, neg, sub

from .algebra import FiniteDimAlgebra
from .complexes import SummandTable, TwoTermComplex, mutate, pair_of_complex


class EngineError(RuntimeError):
    pass


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
        # nodes discovered, by a mutation or a shift read off the payload
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
    """Key and c-vectors (aligned with it) of the node that replaces
    key[pos] by new_g, and the position of new_g in that key.  With
    c_k = cvecs[pos], the rank-one update of G^-1 gives c_j + (g'.c_j) c_k
    for j != k and -c_k at k, valid when g'.c_k = -1; otherwise the new
    g-matrix is not unimodular."""
    ck = cvecs[pos]
    d = _dot(new_g, ck)
    if d != -1:
        raise EngineError(f"exchange g-vector {new_g} at position {pos} of "
                          f"{key} gives g'.c = {d}, not -1")
    gs = list(key)
    del gs[pos]
    cs = []
    for cj in cvecs[:pos] + cvecs[pos + 1:]:
        m = _dot(new_g, cj)
        cs.append(tuple([a + m * b for a, b in zip(cj, ck)]) if m else cj)
    at = bisect_left(gs, new_g)
    gs.insert(at, new_g)
    cs.insert(at, tuple(map(neg, ck)))
    return tuple(gs), cs, at


def _index_facets(facets: dict, node: GraphNode, at=-1,
                  inherited=None) -> list:
    """Record the node under each of its facets, with the position of the
    g-vector the facet leaves out, and return the facets' holder lists by
    position; a node found later under a facet joins the same list.  A
    facet is keyed by its summands, the walk's canonical complexes, which
    hash by identity.  A child's facet at the position `at` of its new
    summand is the facet its parent mutated at, whose holder list it
    passes as `inherited`; that facet's key is not built again."""
    key, summands = node.key, tuple(node.summands)
    lists = [None] * len(summands)
    for p in range(len(summands)):
        if p == at:
            holders = inherited
        else:
            facet = summands[:p] + summands[p + 1:]
            holders = facets.get(facet)
            if holders is None:
                holders = facets[facet] = []
        holders.append((key, p))
        lists[p] = holders
    return lists


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
    facets: dict[tuple, list] = {}
    # each pending node: its c-vectors, its GraphNode, its facet holder
    # lists and the position whose task its parent answered (None for the
    # start); the stalk g-vectors are the unit vectors, so G^-1 is G
    # transposed and its columns are the rows of G
    layer = {start.key: (list(start.key), start,
                         _index_facets(facets, start), None)}
    while layer:
        found = {}
        for key in sorted(layer):
            # dropped once read, so only unexpanded nodes are held
            cvecs, node, holders, answered = layer.pop(key)
            for pos in range(A.n):
                if pos == answered:
                    # the facet's other holder is the parent, and their
                    # edge was added when the parent mutated
                    continue
                direction = _direction(cvecs[pos])
                dst = None
                for other, other_pos in holders[pos]:
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
                        new = mutate(node.summands, pos, direction,
                                     table=g.table)[0][pos]
                    summands = node.summands[:pos] + node.summands[pos + 1:]
                    dst, dst_cvecs, pos_back = _exchanged(
                        key, cvecs, pos, new.g_vector())
                    summands.insert(pos_back, new)
                    child = g.nodes[dst] = _node_payload(
                        A, summands, node, pos, pos_back, dst)
                    found[dst] = (dst_cvecs, child,
                                  _index_facets(facets, child, pos_back,
                                                holders[pos]),
                                  pos_back)
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


def _full_support_count(A: FiniteDimAlgebra, removed, limit) -> int:
    """Nodes of full support over the quotient killing the given
    vertices, counted by a fresh enumeration of the quotient."""
    if len(removed) == A.n:
        return 1
    B = A.vertex_quotient(list(removed))
    g = enumerate_graph(B, limit)
    if not g.complete:
        raise EngineError("quotient exchange graph truncated; "
                          "raise the limit")
    return sum(1 for node in g.nodes.values() if not node.removed)


def _stratum_tally(A: FiniteDimAlgebra, limit, dual) -> tuple[dict, int]:
    """Node counts by stratum, and the node count, of one walk; only these
    leave the job, not the graph.  A node of A is keyed by its removed
    vertex set.  With dual the walk is of A.opposite(), and a node is
    keyed by the vertices v whose projective P_v is a degree-zero summand,
    that is whose unit g-vector e_v is in its key."""
    B = A.opposite() if dual else A
    g = enumerate_graph(B, limit)
    if not g.complete:
        raise EngineError("exchange graph truncated; raise the limit")
    units = {tuple(int(i == v) for i in range(B.n)): label
             for v, label in enumerate(B.vertex_labels)}
    tally: dict = {}
    for node in g.nodes.values():
        key = frozenset(units[gv] for gv in node.key if gv in units) \
            if dual else frozenset(node.removed)
        tally[key] = tally.get(key, 0) + 1
    return tally, len(g.nodes)


_worker_input = None    # (algebra, limit), set once in each worker process


def _init_worker(A: FiniteDimAlgebra, limit):
    global _worker_input
    _worker_input = (A, limit)


def _worker_job(dual):
    return _stratum_tally(*_worker_input, dual)


@contextmanager
def _tallies(A: FiniteDimAlgebra, limit, threads):
    """An iterator over the stratum tallies of the walk of A and then of
    A.opposite().  At threads=1 each walk runs in the calling process when
    its tally is read.  Otherwise min(threads, 2) worker processes, each
    handed the algebra once, run the two walks; reading the tally of a
    walk that failed raises its error, so the first failure read is the
    one the serial run raises.  Leaving the block cancels the walk not yet
    started, waits for those running and lets every worker exit on its
    own: a worker is never terminated, since one killed while it writes a
    result would leave the result queue locked.

    Workers are forked when the caller runs no other thread, since fork is
    unsafe in a threaded process, and the executor then starts them all
    before its own helper threads; otherwise they are spawned, which costs
    each worker a fresh interpreter and import (about 0.1 s)."""
    jobs = (False, True)
    if threads == 1:
        yield (_stratum_tally(A, limit, dual) for dual in jobs)
        return
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    fork = (threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods())
    ctx = multiprocessing.get_context("fork" if fork else "spawn")
    pool = ProcessPoolExecutor(min(threads, len(jobs)), mp_context=ctx,
                               initializer=_init_worker,
                               initargs=(A, limit))
    try:
        futures = [pool.submit(_worker_job, dual) for dual in jobs]
        yield (future.result() for future in futures)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def strata_counts(A: FiniteDimAlgebra, limit: int = 100000,
                  threads: int = 1) -> StrataTable:
    """Group the nodes by their removed vertex set, and insist that every
    one of the 2^n strata, the empty set's included, equals its dual:
    X -> Hom_A(X, A)[1] maps the nodes of A one-to-one onto those of
    A.opposite(), and takes the removed set of X to the vertices v whose
    P_v is a degree-zero summand (Adachi-Iyama-Reiten).  The two walks are
    independent jobs, run in at most `threads` worker processes and
    compared in subset order, so the table and the first error do not
    depend on `threads`."""
    _check_budget(limit, threads)
    labels = list(A.vertex_labels)
    with _tallies(A, limit, threads) as results:
        tally, total = next(results)
        dual, _ = next(results)
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
    largest first."""
    labels = list(A.vertex_labels)
    n = len(labels)
    if not 0 <= max_rank <= n:
        raise EngineError(f"rank must lie between 0 and {n}")
    _check_budget(limit)
    out = [0] * (max_rank + 1)
    for r in range(max_rank, -1, -1):
        for subset in itertools.combinations(labels, n - r):
            out[r] += _full_support_count(A, subset, limit)
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
    the original one in the gluing comparison."""
    from .modules import Module
    if vertex not in A.vertex_labels:
        raise EngineError(f"unknown vertex {vertex!r}")
    P = Module.projective(A, vertex)
    x = _socle_generator(A, vertex)
    B, proj = A.quotient_with_projection([x])
    if B.n != A.n:
        raise EngineError("socle ideal kills an idempotent")
    vB = B.vertex_labels.index(vertex)
    if sum(1 for k in range(B.dim) if B.src[k] == vB) != P.dim - 1:
        raise EngineError(
            "socle ideal meets the projective beyond its socle")
    Pbar = Module.projective(B, vertex)
    g = enumerate_graph(B, limit)
    if not g.complete:
        raise EngineError("exchange graph truncated; raise the limit")
    members = []
    for key in sorted(g.nodes):
        node = g.nodes[key]
        mods, _ = pair_of_complex(node.summands)
        if not any(m.is_iso(Pbar) for m in mods):
            continue
        if all(_pullback_module(A, proj, m).hom_dim(P) == 0 for m in mods):
            members.append(node)
    return members
