"""The walk's shortcuts against the trial mutation.

enumerate_graph mutates only to discover a node.  It reads each edge's
direction off the sign of a c-vector (a column of G^-1, G the g-matrix),
asks mutate for that direction only, which reads the new g-vector
g' = sum m_D g(D) - g(X) off the approximation before building any cone,
and takes every other edge's target from its facet index.  Here, at every
(node, position) of the walk, the c-vector direction, the named mutation
and the walk's edges are checked against mutate(direction=None), which
tries the left cone, then the right cocone, and always builds the cone.
A node's payload and facets are built from its parent's, and the task
its parent answered is skipped; here every payload is checked against one
read off the node's own summands, and every facet holder tuple against
the two completions an almost complete object has.  When the other
summands' H^0 support misses a vertex v of the node's support, the walk
takes the shifted projective P_v[1] without mutating; here, at every
module summand, a lost vertex is checked to occur exactly when the trial
mutation goes left to P_v[1].  A known summand that has shared a node
with every summand of a facet is that facet's other completion, and the
walk takes it without mutating; here each such summand is checked to be
the one the mutation builds.  So is each known summand that has shared a
node with every summand of the facet but one, and that the walk checks
against that one by H^1 = 0 both ways.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from tautilt import catalog, engine
from tautilt.complexes import ComplexError, mutate
from tautilt.engine import enumerate_graph
from tautilt.fields import QQ, PrimeField

FINITE = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
          "A11", "A12", "A13", "A14", "A15", "A16", "L1", "L2", "L3", "L4",
          "L5", "L6", "L7", "L8", "L9", "L10", "exrs0-1", "exrs0-2",
          "nakayama-2", "preproj-A2", "preproj-A3", "preproj-A4",
          "preproj-D4", "ladder-1"]
_BIG_PRIME = PrimeField(2147483647)
LIMIT = 600      # every entry of FINITE closes up below it
BUDGET = 200     # for the tau-tilting infinite ladders


def c_vectors(key) -> list[tuple]:
    """Columns of G^-1 for the g-matrix G whose rows are key, by exact
    Gauss-Jordan elimination; they must be integral."""
    n = len(key)
    rows = [[Fraction(x) for x in g] + [Fraction(int(i == j))
                                        for j in range(n)]
            for i, g in enumerate(key)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    inv = [row[n:] for row in rows]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [tuple(int(inv[i][j]) for i in range(n)) for j in range(n)]


def assert_payload_from_scratch(A, key, node) -> None:
    """The node's fields equal those read off its own summands: the key
    is their sorted g-vectors, in the summands' order; removed and
    support split the vertices by the shifted projectives; and the H^0
    vector is the sum of the summands' ones."""
    gvecs = [t.g_vector() for t in node.summands]
    assert tuple(sorted(gvecs)) == key == tuple(gvecs)
    removed = tuple(sorted(v for t in node.summands if not t.zero
                           for v in t.neg))
    assert node.removed == removed
    assert node.support == tuple(v for v in A.vertex_labels
                                 if v not in removed)
    dims = [sum(col) for col in zip(*[t.h0_dims() for t in node.summands])]
    assert node.h0_dims == dims


def assert_walk_matches_trial(g) -> None:
    """At every (node, position): the c-vector is sign-coherent and its
    sign is the direction the trial takes; the named mutation returns the
    trial's summand; and the walk's edges are exactly the trial's edges
    between its nodes (all of them when the walk closed up).  Every
    node's payload equals the one read off its own summands."""
    trial_edges = set()
    for key, node in g.nodes.items():
        assert_payload_from_scratch(g.A, key, node)
        cvecs = c_vectors(key)
        for pos, c in enumerate(cvecs):
            assert all(x >= 0 for x in c) or all(x <= 0 for x in c)
            predicted = "left" if all(x >= 0 for x in c) else "right"
            named, _ = mutate(node.summands, pos, predicted, table=g.table)
            trial, taken = mutate(node.summands, pos, table=g.table)
            assert taken == predicted, (key, pos)
            assert named[pos] is trial[pos], (key, pos)
            new_g = trial[pos].g_vector()
            dst = tuple(sorted(t.g_vector() for t in trial))
            if dst not in g.nodes:
                assert not g.complete
                continue
            if taken == "left":
                trial_edges.add((key, pos, dst))
            else:
                trial_edges.add((dst, dst.index(new_g), key))
    if g.complete:
        assert g.edges == trial_edges
    else:
        assert g.edges <= trial_edges


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", FINITE)
def test_walk_matches_trial_mutation(key, field):
    g = enumerate_graph(catalog.build(key, field=field), LIMIT)
    assert g.complete
    assert g.expansions == len(g.nodes) - 1
    assert_walk_matches_trial(g)


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", ["ladder-4", "ladder-5"])
def test_budget_walk_matches_trial_mutation(key, field):
    g = enumerate_graph(catalog.build(key, field=field), BUDGET)
    assert not g.complete and len(g.nodes) == BUDGET
    assert g.expansions == BUDGET - 1
    assert_walk_matches_trial(g)


def assert_shift_iff_lost_vertex(g) -> int:
    """At every (node, position) of a module summand X: the H^0 support
    of the other summands, summed from their own H^0 vectors, misses a
    vertex v of the node's support exactly when the trial mutation is the
    left one to the shifted projective P_v[1].  Returns how many such
    positions there are."""
    A = g.A
    shifts = 0
    for node in g.nodes.values():
        support = {v for v, d in enumerate(node.h0_dims) if d}
        for pos, X in enumerate(node.summands):
            if not X.zero:
                continue
            rest = node.summands[:pos] + node.summands[pos + 1:]
            kept = {v for v, col in enumerate(zip(*[t.h0_dims()
                                                     for t in rest]))
                    if any(col)}
            lost = sorted(support - kept)
            trial, taken = mutate(node.summands, pos, table=g.table)
            new = trial[pos]
            to_shift = taken == "left" and not new.zero \
                and len(new.neg) == 1
            if lost:
                assert len(lost) == 1, (node.key, pos, lost)
                assert to_shift, (node.key, pos, taken, new)
                assert new.neg == [A.vertex_labels[lost[0]]], (node.key, pos)
                shifts += 1
            if to_shift:
                assert lost == [A.vertex_labels.index(new.neg[0])], \
                    (node.key, pos, lost)
    return shifts


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", FINITE + ["ladder-4", "ladder-5"])
def test_shift_read_off_h0_support(key, field):
    """The walk reads P_v[1] off the H^0 support instead of mutating; here
    that rule is checked both ways against the trial mutation at every
    module summand of every node."""
    limit = BUDGET if key.startswith("ladder-") else LIMIT
    g = enumerate_graph(catalog.build(key, field=field), limit)
    assert len(g.nodes) == BUDGET or g.complete
    shifts = assert_shift_iff_lost_vertex(g)
    assert shifts


def _walk_with_holders(monkeypatch, A, limit):
    """The walk, and the holder tuple of every facet in its index, read
    through the index the walk passes to _index_facets."""
    indices = {}
    index = engine._index_facets

    def recording(facets, *args, **kwargs):
        indices[id(facets)] = facets
        return index(facets, *args, **kwargs)
    monkeypatch.setattr(engine, "_index_facets", recording)
    g = enumerate_graph(A, limit)
    assert len(indices) == 1
    facets, = indices.values()
    return g, list(facets.values())


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", ["A3", "L10", "nakayama-2", "preproj-A3"])
def test_skipped_task_drops_no_edge(monkeypatch, key, field):
    """A closed walk skips each child's task at its new summand, yet every
    node has n neighbours, and each facet is held by exactly its two
    completions, in one holder tuple."""
    A = catalog.build(key, field=field)
    g, holders = _walk_with_holders(monkeypatch, A, LIMIT)
    assert g.complete
    assert len(g.edges) == A.n * len(g.nodes) // 2
    assert all(len(h) == 2 for h in holders)
    assert len(holders) == len(g.edges)


def test_truncated_walk_holders_at_most_two(monkeypatch):
    g, holders = _walk_with_holders(monkeypatch, catalog.build("ladder-5"),
                                    1000)
    assert not g.complete and len(g.nodes) == 1000
    assert max(map(len, holders)) == 2


@pytest.mark.parametrize("field", [QQ, _BIG_PRIME], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key, limit, counts", [
    ("A3", LIMIT, (35, 88)), ("L10", LIMIT, (207, 134)),
    ("nakayama-2", LIMIT, (0, 0)), ("preproj-A3", LIMIT, (0, 7)),
    ("ladder-3", 1000, (378, 82)), ("ladder-5", 1000, (620, 275))],
    ids=["A3", "L10", "nakayama-2", "preproj-A3", "ladder-3", "ladder-5"])
def test_certified_completion_is_the_mutation(monkeypatch, key, limit,
                                              counts, field):
    """A known summand that has shared a node with every summand of the
    facet (_certified), or with every summand but one, S, and has H^1 = 0
    both ways against S (_certified_near), is taken without mutating; here
    each such completion is checked to be the canonical complex the
    mutation in the c-vector's direction builds.  ladder-5 is cut off at
    1000 nodes, every other walk closes up; the walk of nakayama-2 (6
    nodes) certifies no completion, and that of preproj-A3 (24) none by
    co-occurrence alone."""
    taken = {"_certified": [], "_certified_near": []}

    def recording(certified, found):
        def wrapper(compat, owners, node, pos, *args):
            new = certified(compat, owners, node, pos, *args)
            if new is not None:
                found.append((node, pos, new))
            return new
        return wrapper

    for name, found in taken.items():
        monkeypatch.setattr(engine, name,
                            recording(getattr(engine, name), found))
    g = enumerate_graph(catalog.build(key, field=field), limit)
    assert g.complete == (key != "ladder-5")
    assert (len(taken["_certified"]), len(taken["_certified_near"])) \
        == counts
    for node, pos, new in taken["_certified"] + taken["_certified_near"]:
        direction = engine._direction(c_vectors(node.key)[pos])
        built = mutate(node.summands, pos, direction, table=g.table)[0][pos]
        assert built is new, (node.key, pos)


def test_h1_check_carries_the_certificate(monkeypatch):
    """With every H^1 read as 0, a candidate passes on its g-vector alone,
    and the A3 walk no longer closes up at Finite(192): a wrong summand
    leads it to a node where no mutation is two-term.  The H^1 check, not
    the sign filter, is what certifies a completion."""
    monkeypatch.setattr(engine, "hom_homotopy", lambda X, Y, shift: 0)
    with pytest.raises(ComplexError, match="no two-term complex"):
        enumerate_graph(catalog.build("A3"), LIMIT)
