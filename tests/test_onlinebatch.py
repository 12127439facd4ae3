import random
from dataclasses import dataclass, field
from typing import List, Tuple

import pytest
from fractions import Fraction

from dynacut.errors import RejectedSchedule
from dynacut.multigraph import (DeleteEdge, InsertEdge, MultiGraph,
                                apply_seq, apply_update)
from dynacut.multilevel import make_schedule, preprocess_multi_level
from dynacut.onlinebatch import (ReferenceExecutor, Scheduler, batch_index,
                                 dependency_audit, dependency_chain)
from util import random_connected_graph


class CounterDS:
    """Records the exact build path: base-graph fingerprint plus every batch
    boundary, so scheduler/reference equality proves the lattice shape."""

    def __init__(self):
        self.steps = 0

    def initialize(self, g):
        self.steps += g.vertex_count() + g.distinct_edge_count() + 1
        return (tuple(sorted(g.edge_items())), ())

    def batch_update(self, inst, g_before, seq, g_after):
        assert g_after == apply_seq(g_before.copy(), seq)
        self.steps += len(seq) + 1
        base, batches = inst
        return (base, batches + (tuple(repr(op) for op in seq),))

    def clone(self, inst):
        return inst

    def fingerprint(self, inst):
        return inst


class CloneCountDS(CounterDS):
    """CounterDS that counts clones and checks that every batch_update gets
    the instance the scheduler cloned just before it."""

    def __init__(self):
        super().__init__()
        self.clones = 0
        self.batches = 0
        self._fresh = None

    def batch_update(self, inst, g_before, seq, g_after):
        assert g_after == apply_seq(g_before.copy(), seq)
        assert inst is self._fresh, "batch_update got an uncloned instance"
        self._fresh = None
        self.batches += 1
        return super().batch_update(inst, g_before, seq, g_after)

    def clone(self, inst):
        assert self._fresh is None, "clone not followed by batch_update"
        self.clones += 1
        self._fresh = (inst[0], inst[1])
        return self._fresh


class SortedEdgeListDS:
    """Maintains the sorted weighted edge list through each batch."""

    def __init__(self):
        self.steps = 0

    def initialize(self, g):
        self.steps += g.distinct_edge_count() + 1
        return sorted(g.edge_items())

    def batch_update(self, inst, g_before, seq, g_after):
        assert g_after == apply_seq(g_before.copy(), seq)
        self.steps += len(seq) + 1
        g = g_before.copy()
        for op in seq:
            apply_update(g, op)
        return sorted(g.edge_items())

    def clone(self, inst):
        return list(inst)

    def fingerprint(self, inst):
        return tuple(inst)


class MultiLevelMock:
    """Batch rebuilds of the sparsifier stack under a flat-conductance
    schedule: every batch applies the ops and re-runs preprocessing."""

    def __init__(self, c=2):
        self.c = c
        self.steps = 0

    def initialize(self, g):
        m = sum(m for _, m in g.edge_items())
        sched = make_schedule(self.c, max(m, 2), "desk", {
            "phi": Fraction(1, 4 * max(m, 2) ** 2),
            "n_max": max(g.vertex_count(), 1),
        })
        self.steps += m + g.vertex_count() + 1
        return preprocess_multi_level(g, sched)

    def batch_update(self, inst, g_before, seq, g_after):
        assert g_after == apply_seq(g_before.copy(), seq)
        self.steps += len(seq) + 1
        g = apply_seq(g_before.copy(), seq)
        return self.initialize(g)

    def clone(self, inst):
        return inst.clone()

    def fingerprint(self, inst):
        return inst.fingerprint()


class LazyGraphDS:
    """An instance is a graph built only when it is read: a copy of the
    graph initialize got, or its parent instance's graph with the batch
    applied.  So every read of an instance reads the graph initialize
    got, as the engine's deferred level-0 re-initialize does."""

    def __init__(self):
        self.steps = 0

    def initialize(self, g):
        self.steps += 1
        return g.copy

    def batch_update(self, inst, g_before, seq, g_after):
        self.steps += len(seq) + 1
        return lambda: apply_seq(inst(), seq)

    def clone(self, inst):
        return inst


def test_scheduler_reads_no_graph_its_caller_writes():
    """A BatchableDS may read the graph initialize got at any later time,
    while the scheduler's caller may go on writing the graph it handed
    over (the engine writes its reduction image on every update).  So the
    scheduler initializes from its own copy: after the caller's graph is
    emptied and given a new vertex, every served instance still reads the
    graph as it was handed over, plus the updates stepped in."""
    rng = random.Random(6)
    g = random_connected_graph(rng, 7, 4)
    want = g.copy()
    ops = op_stream(rng, g.copy(), 30)
    sched = Scheduler(LazyGraphDS(), g, 1, 12)
    for u, v in g.edge_keys():
        g.remove_edge(u, v)
    g.add_vertex(99)
    for op in ops:
        apply_update(want, op)
        assert sched.step(op)() == want


def op_stream(rng, g, count):
    """Prefix-valid insert/delete ops; mutates g as the mirror state."""
    ops = []
    verts = g.vertex_list()
    for _ in range(count):
        present = g.edge_keys()
        absent = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
                  if not g.has_edge(u, v)]
        if present and (not absent or rng.random() < 0.45):
            u, v = rng.choice(sorted(present))
            op = DeleteEdge(u, v)
        else:
            u, v = rng.choice(absent)
            op = InsertEdge(u, v, rng.randint(1, 3))
        apply_update(g, op)
        ops.append(op)
    return ops


PAIRS = [(1, 12), (2, 72), (3, 432)]


class TestIndexing:
    def test_scale_and_copy_count(self):
        sched = Scheduler(CounterDS(), MultiGraph(), 1, 12)
        assert sched.s == 6 and sched.d == [6, 1]
        assert sched.copy_count() == 6
        sched2 = Scheduler(CounterDS(), MultiGraph(), 2, 72)
        assert sched2.s == 6 and sched2.d == [36, 6, 1]
        assert sched2.copy_count() == 14

    def test_rejects_small_window(self):
        for xi in (1, 2, 3):
            with pytest.raises(RejectedSchedule):
                Scheduler(CounterDS(), MultiGraph(), xi, 2 * 6 ** xi - 1)
        with pytest.raises(RejectedSchedule):
            Scheduler(CounterDS(), MultiGraph(), 0, 100)

    def test_batch_index_recurrence(self):
        s = 6
        for j in range(-5, 40):
            assert batch_index(0, j, s) == (j % 2,)
        for i in (1, 2):
            for j in range(0, 40):
                parent = batch_index(i - 1, -(-j // s) - 2, s)
                assert batch_index(i, j, s) == parent + (j % 2,)

    def test_dependency_chain_and_audit(self):
        chain = dependency_chain(2, 40, 6)
        assert chain == [(2, 40), (1, 5), (0, -1)]
        for xi, w in PAIRS:
            for j in range(1, 120):
                assert dependency_audit(xi, w, j)


def drive(impl_factory, g0, ops, xi, w):
    """Run scheduler and reference side by side; compare every serve."""
    sched = Scheduler(impl_factory(), g0, xi, w)
    ref = ReferenceExecutor(impl_factory(), g0, xi, w)
    for j, op in enumerate(ops, start=1):
        inst = sched.step(op)
        ref.push(op)
        want = ref.impl.fingerprint(ref.served(j))
        got = sched.impl.fingerprint(inst)
        assert got == want, f"diverged at update {j} (xi={xi}, w={w})"
    return sched


class TestAgainstReference:
    @pytest.mark.parametrize("xi,w", PAIRS)
    def test_counter_mock(self, xi, w):
        rng = random.Random(100 + xi)
        g0 = random_connected_graph(rng, 7, 4)
        ops = op_stream(rng, g0.copy(), 200)
        sched = drive(CounterDS, g0, ops, xi, w)
        audit = sched.batch_count_audit()
        assert audit["max_batches"] <= xi
        assert audit["max_batch_size"] <= w
        assert audit["serves"] == 200

    @pytest.mark.parametrize("xi,w", PAIRS)
    def test_sorted_edge_list_mock(self, xi, w):
        rng = random.Random(200 + xi)
        g0 = random_connected_graph(rng, 6, 5)
        ops = op_stream(rng, g0.copy(), 200)
        drive(SortedEdgeListDS, g0, ops, xi, w)

    @pytest.mark.parametrize("xi,w", [(1, 12), (2, 72)])
    def test_multi_level_mock(self, xi, w):
        rng = random.Random(300 + xi)
        g0 = random_connected_graph(rng, 6, 3)
        ops = op_stream(rng, g0.copy(), 90)
        drive(MultiLevelMock, g0, ops, xi, w)

    @pytest.mark.parametrize("xi,w", PAIRS)
    def test_clones_only_for_batch_updates(self, xi, w):
        rng = random.Random(500 + xi)
        g0 = random_connected_graph(rng, 6, 3)
        ops = op_stream(rng, g0.copy(), 120)
        sched = Scheduler(CloneCountDS(), g0, xi, w)
        assert sched.impl.clones == 0
        for op in ops:
            sched.step(op)
            assert sched.impl.clones == sched.impl.batches
        # one serve per update, plus background batches when xi >= 2
        assert sched.impl.batches >= len(ops)

    def test_served_graph_tracks_truth(self):
        rng = random.Random(17)
        g0 = random_connected_graph(rng, 6, 4)
        mirror = g0.copy()
        ops = op_stream(rng, mirror.copy(), 80)
        sched = Scheduler(SortedEdgeListDS(), g0, 1, 12)
        for op in ops:
            inst = sched.step(op)
            apply_update(mirror, op)
            assert tuple(sorted(mirror.edge_items())) == tuple(inst)


    @pytest.mark.parametrize("xi,w", [(1, 12), (2, 72)])
    def test_long_trace_keeps_a_bounded_update_window(self, xi, w):
        """Over 20,000 updates the scheduler keeps only a window of recent
        updates whose length does not grow with the trace, and what it
        serves still equals the lattice state: early on, at checkpoints
        spread over the trace, and on every update of its tail."""
        n_ops = 20000
        rng = random.Random(600 + xi)
        g0 = random_connected_graph(rng, 5, 3)
        ops = op_stream(rng, g0.copy(), n_ops)
        sched = Scheduler(CounterDS(), g0, xi, w)
        ref = ReferenceExecutor(CounterDS(), g0, xi, w)
        checks = (set(range(1, 120)) | set(range(997, n_ops, 997))
                  | set(range(n_ops - 120, n_ops + 1)))
        longest = 0
        for j, op in enumerate(ops, start=1):
            inst = sched.step(op)
            ref.push(op)
            longest = max(longest, len(sched.updates))
            assert sched.dropped + len(sched.updates) == j
            if j in checks:
                want = ref.impl.fingerprint(ref.served(j))
                assert sched.impl.fingerprint(inst) == want, \
                    f"diverged at update {j}"
        assert sched.dropped > n_ops - 3 * sched.d[0]
        assert longest <= 3 * sched.d[0]


class TestWorkSmoothing:
    @pytest.mark.parametrize("xi,w", PAIRS)
    def test_per_update_bound(self, xi, w):
        rng = random.Random(400 + xi)
        g0 = random_connected_graph(rng, 7, 5)
        ops = op_stream(rng, g0.copy(), 200)
        sched = drive(CounterDS, g0, ops, xi, w)
        stats = sched.work_stats()
        t_pre = sched.preprocess_steps
        t_amort = 2  # CounterDS charges len(seq)+1 per batch
        bound = 8 * 4 ** xi * (t_pre / w + w ** (1 / xi) * t_amort)
        assert stats["max_steps_per_update"] <= bound

    def test_steps_recorded_every_update(self):
        rng = random.Random(5)
        g0 = random_connected_graph(rng, 5, 3)
        ops = op_stream(rng, g0.copy(), 50)
        sched = drive(CounterDS, g0, ops, 1, 12)
        assert len(sched.steps_per_update) == 50
        assert all(s >= 0 for s in sched.steps_per_update)
