"""Exchange-graph enumeration tests.

Hand-checked ground truths used below:

* nakayama-2 (cyclic two-vertex algebra, radical square zero) has exactly
  six support pairs: (P1+P2, {}), (P1+S1, {}), (P2+S2, {}), (S1, {2}),
  (S2, {1}), (0, {1,2}).  An independent brute-force oracle over the four
  indecomposables confirms this via is_stau_pair.  The strata counts are
  t_{} = 3, t_{1} = t_{2} = t_{1,2} = 1, and the support-rank slices for
  ranks 0, 1, 2 are 1, 2, 3.
* ladder-1 (hereditary 1 -> 2) gives the pentagon: 5 nodes, 5 edges, one
  source, one sink.
* gluing at vertex 1 of nakayama-2: soc P1 = S2 is simple, the quotient
  by its ideal is the hereditary algebra 2 -> 1 with 5 support pairs, and
  the only member of the gluing subset is (S1, {2}); 6 = 5 + 1.
* preprojective counts 6 and 24 for types A2 and A3 (the order of the
  Weyl group, a standard fact used as an anchor).
"""
from __future__ import annotations

import itertools
import multiprocessing.process
import threading
from collections import Counter
from fractions import Fraction

import pytest

from tautilt import catalog, engine
from tautilt.algebra import FiniteDimAlgebra, build_algebra
from tautilt.complexes import (ComplexError, SummandTable, TwoTermComplex,
                               complex_of_pair, pair_of_complex)
from tautilt.engine import (Count, EngineError, _socle_generator,
                            adachi_subset, count, enumerate_graph,
                            strata_counts, support_rank_slices)
from tautilt.fields import PrimeField
from tautilt.linalg import kernel
from tautilt.modules import Module, is_stau_pair
from tautilt.quiver import Presentation, Quiver


def brute_force_pairs(A, indecs):
    """Count support pairs directly from a complete list of
    indecomposables, via is_stau_pair only (no complexes, no mutation)."""
    labels = list(A.vertex_labels)
    total = 0
    for r in range(len(labels) + 1):
        for removed in itertools.combinations(labels, r):
            need = A.n - r
            for mods in itertools.combinations(range(len(indecs)), need):
                if is_stau_pair(A, [indecs[i] for i in mods], list(removed)):
                    total += 1
    return total


def test_count_str():
    assert str(Count(8, True)) == "Finite(8)"
    assert str(Count(500, False)) == "AtLeast(500)"


def test_one_vertex_semisimple():
    A = build_algebra(Presentation(Quiver([1], []), []))
    g = enumerate_graph(A)
    assert g.complete and len(g.nodes) == 2
    assert count(A) == Count(2, True)


def test_pentagon_graph():
    A = catalog.build("ladder-1")
    g = enumerate_graph(A)
    assert g.complete
    assert len(g.nodes) == 5
    assert len(g.edges) == 5
    outs = {}
    ins = {}
    for s, _, t in g.edges:
        outs[s] = outs.get(s, 0) + 1
        ins[t] = ins.get(t, 0) + 1
    sources = [k for k in g.nodes if ins.get(k, 0) == 0]
    sinks = [k for k in g.nodes if outs.get(k, 0) == 0]
    assert sources == [((0, 1), (1, 0))]
    assert sinks == [((-1, 0), (0, -1))]
    assert outs[sources[0]] == 2 and ins[sinks[0]] == 2
    # n-regularity: total degree 2 at every node
    for k in g.nodes:
        assert outs.get(k, 0) + ins.get(k, 0) == 2


def test_nakayama_count_vs_brute_force():
    A = catalog.build("nakayama-2")
    P1, P2 = Module.projective(A, 1), Module.projective(A, 2)
    S1, S2 = Module.simple(A, 1), Module.simple(A, 2)
    oracle = brute_force_pairs(A, [P1, P2, S1, S2])
    assert oracle == 6
    assert count(A) == Count(6, True)


def test_preprojective_small_counts():
    assert count(catalog.build("preproj-A2")) == Count(6, True)
    assert count(catalog.build("preproj-A3")) == Count(24, True)


def test_budget_cuts_off():
    A = catalog.build("ladder-1")
    c = count(A, limit=3)
    assert c == Count(3, False)
    assert str(c) == "AtLeast(3)"
    g = enumerate_graph(A, limit=3)
    assert not g.complete and len(g.nodes) == 3


def test_node_payload_valid_pairs():
    A = catalog.build("preproj-A2")
    g = enumerate_graph(A)
    for node in g.nodes.values():
        mods, removed = pair_of_complex(node.summands)
        assert is_stau_pair(A, mods, removed)
        assert list(node.removed) == removed
        total = [0] * A.n
        for m in mods:
            for i, d in enumerate(m.dim_vector()):
                total[i] += d
        assert total == node.h0_dims


@pytest.mark.parametrize("p", [None, 2147483647], ids=["QQ", "GFp"])
@pytest.mark.parametrize("key", ["nakayama-2", "A5", "L1", "exrs0-1",
                                 "preproj-A3", "ladder-2"])
def test_pair_complex_round_trip(key, p):
    A = catalog.build(key, field=PrimeField(p)) if p else catalog.build(key)
    g = enumerate_graph(A)
    for node in g.nodes.values():
        mods, removed = pair_of_complex(node.summands)
        back = complex_of_pair(A, mods, removed)
        assert sorted(t.g_vector() for t in back) == list(node.key)


@pytest.mark.parametrize("one_shot", [iter, lambda xs: (x for x in xs)],
                         ids=["iterator", "generator"])
def test_complex_of_pair_reads_each_argument_once(one_shot):
    # the pair check and the summand list read the same arguments, so a
    # one-shot iterable loses none of its entries
    A = catalog.build("nakayama-2")
    P1, P2 = Module.projective(A, 1), Module.projective(A, 2)
    for mods, removed in (([P1, P2], []), ([Module.simple(A, 1)], [2])):
        want = [t.g_vector() for t in complex_of_pair(A, mods, removed)]
        assert len(want) == 2
        for args in ((one_shot(mods), removed), (mods, one_shot(removed)),
                     (one_shot(mods), one_shot(removed))):
            assert [t.g_vector()
                    for t in complex_of_pair(A, *args)] == want


def test_g_matrix_unimodular():
    from tautilt.algebra import _int_det
    g = enumerate_graph(catalog.build("preproj-A2"))
    for key in g.nodes:
        assert _int_det([list(r) for r in key]) in (1, -1)


def test_exchange_involution_sampled():
    from tautilt.complexes import mutate
    g = enumerate_graph(catalog.build("preproj-A3"))
    assert len(g.nodes) == 24
    import random
    rng = random.Random(7)
    keys = sorted(g.nodes)
    for _ in range(30):
        node = g.nodes[rng.choice(keys)]
        k = rng.randrange(len(node.summands))
        moved, d1 = mutate(node.summands, k)
        new_pos = next(i for i, t in enumerate(moved)
                       if t.g_vector() not in node.key)
        back, d2 = mutate(moved, new_pos)
        assert {d1, d2} == {"left", "right"}
        assert sorted(t.g_vector() for t in back) == list(node.key)


def test_strata_nakayama():
    A = catalog.build("nakayama-2")
    table = strata_counts(A)
    assert table.total == 6
    assert table.counts[frozenset()] == 3
    assert table.counts[frozenset({1})] == 1
    assert table.counts[frozenset({2})] == 1
    assert table.counts[frozenset({1, 2})] == 1


def test_strata_pentagon():
    table = strata_counts(catalog.build("ladder-1"))
    assert table.total == 5
    assert table.counts[frozenset()] == 2   # P1+P2 and P1+S1
    assert table.counts[frozenset({1})] == 1
    assert table.counts[frozenset({2})] == 1
    assert table.counts[frozenset({1, 2})] == 1


def test_strata_requires_complete():
    with pytest.raises(EngineError):
        strata_counts(catalog.build("ladder-1"), limit=2)


def test_support_rank_slices_nakayama():
    A = catalog.build("nakayama-2")
    assert support_rank_slices(A, 2) == [1, 2, 3]


def test_adachi_subset_nakayama():
    A = catalog.build("nakayama-2")
    members = adachi_subset(A, 1)
    assert len(members) == 1
    # the quotient by soc P1 is hereditary 2 -> 1 with five support pairs
    assert count(A).value == 5 + len(members)


def _socle_generator_oracle(A, vertex):
    """The socle of e_v A solved over all of e_v A against every radical
    basis element, or None unless it is simple."""
    F = A.field
    v = A.vertex_labels.index(vertex)
    pbasis = [k for k in range(A.dim) if A.src[k] == v]
    eqs = []
    for r in range(A.n, A.dim):
        row_of = {}
        for i, k in enumerate(pbasis):
            for m, c in A.mul({k: F.one}, {r: F.one}).items():
                row_of.setdefault(m, [F.zero] * len(pbasis))[i] = c
        eqs.extend(row_of.values())
    soc = kernel(eqs, len(pbasis), F)
    if len(soc) != 1:
        return None
    return {pbasis[i]: c for i, c in enumerate(soc[0]) if not F.is_zero(c)}


@pytest.mark.parametrize("key", ["A3", "L10", "nakayama-2", "preproj-A3"])
def test_socle_generator_matches_oracle(key):
    A = catalog.build(key)
    for vertex in A.vertex_labels:
        want = _socle_generator_oracle(A, vertex)
        if want is None:
            with pytest.raises(EngineError, match="need a simple socle"):
                _socle_generator(A, vertex)
        else:
            assert _socle_generator(A, vertex) == want


def test_thread_counts_agree():
    A = catalog.build("preproj-A2")
    g1 = enumerate_graph(A, threads=1)
    g3 = enumerate_graph(A, threads=3)
    assert sorted(g1.nodes) == sorted(g3.nodes)
    assert sorted(g1.edges) == sorted(g3.edges)
    assert g1.expansions == g3.expansions


def _interned_summand_count(g) -> int:
    """Number of distinct summand objects over the nodes, after checking
    that there is one per g-vector and that each is the table's."""
    summands = [t for node in g.nodes.values() for t in node.summands]
    objects = len({id(t) for t in summands})
    assert objects == len({t.g_vector() for t in summands})
    assert all(g.table.canonical(t) is t for t in summands)
    return objects


def test_summands_interned_by_g_vector():
    assert _interned_summand_count(enumerate_graph(catalog.build("A3"))) == 48


def test_mutation_builds_each_g_vector_once(monkeypatch):
    # a mutation result whose g-vector the table already holds is answered
    # by the table's complex, so a walk builds one complex per g-vector
    built = []
    init = TwoTermComplex.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.g_vector())

    monkeypatch.setattr(TwoTermComplex, "__init__", counting_init)
    g = enumerate_graph(catalog.build("A3"))
    assert len(built) == len(set(built)) == len(g.table._summands) == 48


def test_image_spans_composed_once_per_triple(monkeypatch):
    # each (S, M, T) image span is composed once per walk and then read
    # from the table, so the A3 walk needs well under half of the 8544
    # compositions it made when every approximation composed afresh
    from tautilt import complexes
    composed = []
    compose = complexes.compose_chain

    def counting_compose(*args):
        composed.append(1)
        return compose(*args)

    built = Counter()
    images = SummandTable.images

    def counting_images(self, S, M, T):
        before = len(composed)
        rows = images(self, S, M, T)
        if len(composed) > before:
            built[(S.g_vector(), M.g_vector(), T.g_vector())] += 1
        return rows

    monkeypatch.setattr(complexes, "compose_chain", counting_compose)
    monkeypatch.setattr(SummandTable, "images", counting_images)
    g = enumerate_graph(catalog.build("A3"))
    assert g.complete and len(g.nodes) == 192
    assert built and max(built.values()) == 1
    assert len(composed) < 8544 // 2


@pytest.mark.parametrize("key, expansions", [("A3", 191), ("L10", 503)])
def test_walk_mutates_once_per_new_node(monkeypatch, key, expansions):
    # each new node costs one mutation, or a shifted projective read off
    # the H^0 support (a module summand that alone covers a vertex of the
    # node's support); every other edge is read off the facet index, each
    # mutation goes in the direction its c-vector gives (so no left cone
    # fails), and a cone is reduced only for a g-vector the table does not
    # hold yet
    from tautilt import complexes, engine
    calls = Counter()
    mutate = engine.mutate
    shift_read_off = engine._shift_read_off
    left = complexes._left_mutation
    reduce_three = complexes._reduce_three

    def counting_mutate(*args, **kwargs):
        calls["mutate"] += 1
        return mutate(*args, **kwargs)

    def checked_left(*args, **kwargs):
        result = left(*args, **kwargs)
        assert result is not None, "a left cone failed"
        return result

    def counting_reduce(*args):
        calls["reduce"] += 1
        return reduce_three(*args)

    def counting_shift(*args):
        new = shift_read_off(*args)
        calls["shift"] += new is not None
        return new

    monkeypatch.setattr(engine, "mutate", counting_mutate)
    monkeypatch.setattr(engine, "_shift_read_off", counting_shift)
    monkeypatch.setattr(complexes, "_left_mutation", checked_left)
    monkeypatch.setattr(complexes, "_reduce_three", counting_reduce)
    A = catalog.build(key)
    g = enumerate_graph(A)
    assert g.complete
    shifts = {"A3": 28, "L10": 110}[key]
    assert (calls["mutate"], calls["shift"]) == (expansions - shifts, shifts)
    assert g.expansions == len(g.nodes) - 1 == expansions
    assert 0 < calls["reduce"] <= len(g.table._summands) - A.n


@pytest.mark.parametrize("key, homks, radicals, triples",
                         [("A3", 454, 46, 900), ("L10", 730, 48, 1365)])
def test_walk_table_work_pinned(monkeypatch, key, homks, radicals, triples):
    # exact per-walk counts, independent of the host's speed: one HomK per
    # ordered pair of summands the approximations touch, one End radical
    # per summand used as a factor at itself, one stored span per triple
    from tautilt import complexes
    calls = Counter()
    homk_init = complexes.HomK.__init__
    rad_end_reps = complexes._rad_end_reps

    def counting_homk(self, *args, **kwargs):
        calls["homk"] += 1
        homk_init(self, *args, **kwargs)

    def counting_rad(*args):
        calls["rad"] += 1
        return rad_end_reps(*args)

    monkeypatch.setattr(complexes.HomK, "__init__", counting_homk)
    monkeypatch.setattr(complexes, "_rad_end_reps", counting_rad)
    g = enumerate_graph(catalog.build(key))
    assert g.complete
    assert calls["homk"] == len(g.table._homs) == homks
    assert calls["rad"] == len(g.table._rads) == radicals
    assert len(g.table._images) == triples


@pytest.mark.parametrize("key, composites", [("A3", 2308), ("L10", 1949)])
def test_walk_compose_work_pinned(monkeypatch, key, composites):
    # exact compose_chain calls per walk: an images() span stops composing
    # once it fills its HomK, and a shifted projective read off the H^0
    # support needs no approximation, so the walk makes fewer than the
    # 2681 (A3) and 2285 (L10) of mutating for every new node, or the 2854
    # and 2583 of composing every pair; the table it fills is the one
    # test_walk_table_work_pinned pins
    from tautilt import complexes
    calls = Counter()
    compose_chain = complexes.compose_chain

    def counting_compose(*args):
        calls["compose"] += 1
        return compose_chain(*args)

    monkeypatch.setattr(complexes, "compose_chain", counting_compose)
    g = enumerate_graph(catalog.build(key))
    assert g.complete
    assert calls["compose"] == composites


def _table_answers(table, nodes):
    """HomK reps, image spans and approximations of every summand against
    the rest of its node, read from the table."""
    from tautilt.complexes import _approx_components
    out = []
    for summands in nodes:
        for k, X in enumerate(summands):
            others = summands[:k] + summands[k + 1:]
            for D in others:
                H = table.hom(X, D)
                assert H.X is X and H.Y is D
                out.append((H.dim, H.reps,
                            [table.images(X, M, D) for M in others]))
            for side in ("left", "right"):
                out.append([(D.g_vector(), t) for D, _, t in
                            _approx_components(X, others, side, table)])
    return out


def test_summand_tables_keep_their_own_stores():
    # one complex can be canonical in two tables over the same algebra;
    # each table keys its stores itself, so interning the same complexes
    # in another order, while the first table is in use, changes none of
    # the first table's answers, and no HomK is shared
    A = catalog.build("L10")
    g = enumerate_graph(A, limit=60)
    nodes = [g.nodes[key].summands for key in sorted(g.nodes)[::7]]
    first, second = SummandTable(A), SummandTable(A)
    for summands in nodes:
        for t in summands:
            assert first.canonical(t) is t
    before = _table_answers(first, nodes)
    for summands in reversed(nodes):
        for t in reversed(summands):
            assert second.canonical(t) is t
    assert _table_answers(second, nodes) == before
    assert _table_answers(first, nodes) == before
    shared = {id(h) for h in first._homs.values()} \
        & {id(h) for h in second._homs.values()}
    assert first._homs and not shared


def test_wrong_exchange_summand_raises(monkeypatch):
    # a mutation that hands back another summand's g-vector gives a
    # g-matrix that is not unimodular: g'.c_k is 0, not -1
    from tautilt import engine
    mutate = engine.mutate

    def wrong_mutate(summands, k, *args, **kwargs):
        moved, taken = mutate(summands, k, *args, **kwargs)
        moved[k] = moved[(k + 1) % len(moved)]
        return moved, taken

    monkeypatch.setattr(engine, "mutate", wrong_mutate)
    with pytest.raises(EngineError, match="not -1"):
        enumerate_graph(catalog.build("A3"))


def test_shift_rule_raises_where_air_rules_it_out():
    # a module summand that alone carries H^0 at a vertex of the node's
    # support is exchanged, by a left mutation, for the shifted projective
    # at that one vertex; a right c-vector, or a summand that alone carries
    # two vertices (P_1 + P_2[1] over ladder-1 is no support pair, since
    # Hom(P_2, P_1) != 0), raises instead
    from tautilt.engine import _node_payload, _shift_read_off
    A = catalog.build("ladder-1")
    table = SummandTable(A)
    p1, p2 = (table.canonical(TwoTermComplex.stalk(A, v)) for v in (1, 2))
    stalks = _node_payload(A, [p1, p2])
    at = stalks.summands.index(p1)
    assert stalks.h0_dims == [1, 2]
    assert _shift_read_off(table, stalks, at, "left").g_vector() == (-1, 0)
    assert _shift_read_off(table, stalks, 1 - at, "left") is None
    with pytest.raises(EngineError, match="goes right"):
        _shift_read_off(table, stalks, at, "right")
    bad = _node_payload(A, [p1, table.complex_of([1], [], [])])
    with pytest.raises(EngineError, match="more than one vertex"):
        _shift_read_off(table, bad, bad.summands.index(p1), "left")


def test_qq_walk_scalars_stay_int():
    # integral rationals are ints, so no Fraction with denominator 1 is
    # left in the HomK bases or the differentials of a walk over QQ
    g = enumerate_graph(catalog.build("A3"))
    scalars = [c for H in g.table._homs.values() for rep in H.reps
               for c in rep]
    scalars += [c for X in g.table._summands.values() for row in X.d
                for ent in row for c in ent.values()]
    assert scalars
    assert not any(isinstance(c, Fraction) and c.denominator == 1
                   for c in scalars)


def test_walk_starts_no_thread(monkeypatch):
    # the walk runs in the calling thread, whatever threads says
    def refuse(self):
        raise AssertionError("the walk started a thread")

    A = catalog.build("preproj-A3")
    ref = enumerate_graph(A)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = enumerate_graph(A, threads=4)
    assert g.complete and len(g.nodes) == 24
    assert sorted(g.nodes) == sorted(ref.nodes)
    assert sorted(g.edges) == sorted(ref.edges)


def test_strata_at_one_thread_start_no_process(monkeypatch):
    # at threads=1 the strata jobs run in the calling process
    def refuse(self):
        raise AssertionError("a strata job started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    A = catalog.build("nakayama-2")
    assert strata_counts(A).total == 6
    assert support_rank_slices(A, 2) == [1, 2, 3]


def test_strata_in_worker_processes_match_serial():
    A = catalog.build("L10")
    serial = strata_counts(A)
    pooled = strata_counts(A, threads=2)
    assert list(pooled.counts.items()) == list(serial.counts.items())
    assert pooled.total == serial.total == 504


def test_strata_beside_a_running_thread_spawn_their_workers():
    # fork is unsafe while another thread runs, so the workers are spawned
    # and import the package afresh; the answers stay the serial ones
    A = catalog.build("nakayama-2")
    serial = strata_counts(A)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        pooled = strata_counts(A, threads=2)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert list(pooled.counts.items()) == list(serial.counts.items())


def test_strata_start_at_most_threads_processes(monkeypatch):
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    # two strata jobs, the walks of A and of its opposite, so no more
    # than two workers whatever threads says
    assert strata_counts(catalog.build("nakayama-2"), threads=3).total == 6
    assert 0 < len(starts) <= 2


def test_strata_in_worker_processes_raise_the_serial_error():
    A = catalog.build("ladder-1")
    with pytest.raises(EngineError) as serial:
        strata_counts(A, limit=2)
    with pytest.raises(EngineError) as pooled:
        strata_counts(A, limit=2, threads=2)
    assert str(pooled.value) == str(serial.value)
    # the walk of A's error, read before its opposite's
    assert str(serial.value).startswith("exchange graph truncated")


def test_strata_error_lets_every_worker_exit(monkeypatch):
    # a failed job cancels the jobs not yet started and waits for the
    # running ones: no worker is terminated while it may hold the lock of
    # the result queue, so every worker ends with exit code 0
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recorded)
    with pytest.raises(EngineError, match="exchange graph truncated"):
        strata_counts(catalog.build("ladder-1"), limit=2, threads=2)
    assert 0 < len(started) <= 2
    assert [p.exitcode for p in started] == [0] * len(started)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_strata_workers_start_before_any_helper_thread(monkeypatch):
    # fork is unsafe in a threaded process: each worker is forked while
    # the calling thread is still the only one, before the pool starts
    # the threads that feed and read it
    assert threading.active_count() == 1, "a thread outlived its test"
    seen = []
    start = multiprocessing.process.BaseProcess.start

    def recorded(self):
        seen.append((self._start_method, threading.active_count()))
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recorded)
    assert strata_counts(catalog.build("nakayama-2"), threads=2).total == 6
    assert seen == [("fork", 1)] * 2
    assert threading.active_count() == 1


def test_strata_walk_a_and_its_opposite_once(monkeypatch):
    # the strata are checked by duality: one walk of A, one of A^op, and
    # no vertex quotient is built
    walk = engine.enumerate_graph
    walked = []

    def counted(A, *args, **kwargs):
        walked.append(A)
        return walk(A, *args, **kwargs)

    def refuse(self, removed):
        raise AssertionError("strata built a vertex quotient")

    monkeypatch.setattr(engine, "enumerate_graph", counted)
    monkeypatch.setattr(FiniteDimAlgebra, "vertex_quotient", refuse)
    for name, full in (("nakayama-2", 3), ("L10", 251)):
        A = catalog.build(name)
        walked.clear()
        table = strata_counts(A)
        assert len(walked) == 2
        assert walked[0] is A and walked[1] is A.opposite()
        g = walk(A)
        assert table.counts[frozenset()] == full == sum(
            1 for node in g.nodes.values() if not node.removed)


def test_strata_check_the_empty_set_stratum(monkeypatch):
    # the dual walk loses the image of one full-support node of A (a node
    # of A^op with no degree-zero projective summand): the empty-set
    # stratum no longer matches, and it is the first one compared
    walk = engine.enumerate_graph
    A = catalog.build("L10")

    def lossy(B, *args, **kwargs):
        g = walk(B, *args, **kwargs)
        if B is A.opposite():
            units = {tuple(int(i == v) for i in range(B.n))
                     for v in range(B.n)}
            lost = next(key for key in sorted(g.nodes)
                        if not units.intersection(key))
            del g.nodes[lost]
        return g

    monkeypatch.setattr(engine, "enumerate_graph", lossy)
    with pytest.raises(EngineError, match=r"^stratum set\(\) disagrees: "
                       r"251 from the walk of A, 250 from the walk of its "
                       r"opposite$"):
        strata_counts(A)


@pytest.mark.parametrize("bad", [{"threads": 0}, {"limit": 0}])
def test_public_walks_reject_nonpositive_arguments(bad):
    A = catalog.build("nakayama-2")
    calls = [lambda: enumerate_graph(A, **bad),
             lambda: strata_counts(A, **bad)]
    if "threads" not in bad:
        # support_rank_slices and adachi_subset take no thread count
        calls += [lambda: support_rank_slices(A, 2, **bad),
                  lambda: adachi_subset(A, 1, **bad)]
    for call in calls:
        with pytest.raises(EngineError, match="must be positive"):
            call()


def test_summand_table_rejects_other_algebra():
    table = SummandTable(catalog.build("ladder-1"))
    with pytest.raises(ComplexError):
        table.canonical(TwoTermComplex.stalk(catalog.build("nakayama-2"), 1))


def test_expansions_stat():
    # one mutation, or one shift read off the H^0 support, per node found
    # beyond the stalk node
    A = catalog.build("ladder-1")
    g = enumerate_graph(A)
    assert g.expansions == len(g.nodes) - 1 == 4
    assert g.expansions == enumerate_graph(A).expansions
