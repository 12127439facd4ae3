"""Tests for the top-level engine: oracle, preprocessing, updates, queries."""

import hashlib
import importlib.util
import itertools
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dynacut import (connectivity, cutpartition, cutprimitives, multigraph,
                     multilevel, onlinebatch, repair)
from dynacut.connectivity import (
    StackDS, edge_connectivity, engine_preprocess, engine_query,
    engine_update, offline_oracle,
)
from dynacut.cutprimitives import component_of, components
from dynacut.dynforest import GraphDS, InsertTerminal
from dynacut.errors import RejectedOp
from dynacut.harness import gen_workload
from dynacut.multigraph import (CompositeOp, DeleteEdge, DeleteVertex,
                                InsertEdge, InsertVertex, MultiGraph,
                                apply_update, induced_subgraph)
from dynacut.multilevel import make_schedule, preprocess_multi_level
from dynacut.onlinebatch import Scheduler

from util import (barbell, complete_graph, cycle_graph,
                  random_connected_graph, two_barbells, whole_graph_query)


def brute_connectivity(g, x, y, cap_at):
    """Independent oracle: min boundary multiplicity over vertex subsets
    separating x from y, capacities capped at cap_at per edge."""
    verts = [v for v in g.vertex_list() if v not in (x, y)]
    best = None
    for r in range(len(verts) + 1):
        for extra in itertools.combinations(verts, r):
            side = {x, *extra}
            cut = sum(min(m, cap_at) for (u, v), m in g.edge_items()
                      if (u in side) != (v in side))
            best = cut if best is None else min(best, cut)
    return min(best, cap_at)


def clique_ring(c, alpha):
    """alpha cliques of size 2c+1 in a ring, adjacent cliques joined by c
    distinct edges; terminal u_i is vertex i*(2c+1)."""
    g = MultiGraph()
    k = 2 * c + 1
    for i in range(alpha * k):
        g.add_vertex(i)
    for i in range(alpha):
        base = i * k
        for a in range(k):
            for b in range(a + 1, k):
                g.add_edge(base + a, base + b, 1)
        nxt = ((i + 1) % alpha) * k
        for j in range(c):
            g.add_edge(base + j, nxt + j, 1)
    return g


# -- offline oracle ----------------------------------------------------------

def test_oracle_disconnected():
    g = MultiGraph()
    g.add_vertex(0)
    g.add_vertex(1)
    assert not offline_oracle(g, 0, 1, 1)


def test_oracle_c4():
    g = cycle_graph(4)
    assert offline_oracle(g, 0, 2, 2)
    assert not offline_oracle(g, 0, 2, 3)


def test_oracle_absent_vertex():
    g = cycle_graph(4)
    with pytest.raises(RejectedOp):
        offline_oracle(g, 0, 9, 1)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_oracle_clique_ring(c):
    g = clique_ring(c, 4)
    k = 2 * c + 1
    for i, j in itertools.combinations(range(4), 2):
        assert edge_connectivity(g, i * k, j * k, 3 * c) == 2 * c
        assert offline_oracle(g, i * k, j * k, c)


def test_edge_connectivity_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7),
                                   rng.randint(0, 6))
        vs = g.vertex_list()
        x, y = rng.sample(vs, 2)
        cap = rng.randint(1, 4)
        assert edge_connectivity(g, x, y, cap) == \
            brute_connectivity(g, x, y, cap)


# -- engine ------------------------------------------------------------------

def test_engine_empty_graph():
    e = engine_preprocess(MultiGraph(), 2)
    assert e.current.level_count() >= 1
    with pytest.raises(RejectedOp):
        engine_query(e, 0, 1)


def test_engine_k4_all_true():
    e = engine_preprocess(complete_graph(4), 3)
    for u, w in itertools.combinations(range(4), 2):
        assert engine_query(e, u, w)


def test_engine_barbell():
    e = engine_preprocess(barbell(), 2)
    assert not engine_query(e, 0, 3)      # cross-bridge
    assert not engine_query(e, 2, 3)      # the bridge endpoints themselves
    assert engine_query(e, 0, 1)          # inside a triangle
    assert engine_query(e, 3, 5)


def test_preprocess_builds_a_graphds_per_layer_only(monkeypatch):
    """Each level holds its input graph as a plain MultiGraph, so the
    distinct layers are the only GraphDS objects a preprocess builds: a
    layer with no witness edges is the layer before it.  A GraphDS is made
    by __init__ or by from_forest, which clone and restrict go through, so
    counting both counts every one.  On the flat schedule no layer has
    witness edges, so each level runs the forest BFS once, for its
    layer 0."""
    built = []
    bfs = []
    init = GraphDS.__init__
    from_forest = GraphDS.from_forest.__func__
    build_forest = GraphDS._build_forest

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_from_forest(cls, *args, **kwargs):
        ds = from_forest(cls, *args, **kwargs)
        built.append(ds)
        return ds

    def counting_build_forest(self, *args, **kwargs):
        bfs.append(self)
        build_forest(self, *args, **kwargs)

    monkeypatch.setattr(GraphDS, "__init__", counting_init)
    monkeypatch.setattr(GraphDS, "from_forest",
                        classmethod(counting_from_forest))
    monkeypatch.setattr(GraphDS, "_build_forest", counting_build_forest)
    e = engine_preprocess(barbell(), 2)
    levels = e.current.levels
    distinct = {id(ds) for ods in levels for ds in ods.layers}
    assert len(built) == len(distinct)
    assert {id(ds) for ds in built} == distinct
    assert bfs == [ods.layers[0] for ods in levels]


def _triangle_chains(*bases):
    """A chain of 3 triangles on the 9 ids from each base, each triangle
    joined to the next by one edge.  On the two-level desk schedule the
    middle triangle holds two terminals, so the first level has witness
    layers."""
    edges = []
    for base in bases:
        for t in range(base, base + 9, 3):
            edges += [(t, t + 1), (t, t + 2), (t + 1, t + 2)]
            if t > base:
                edges.append((t - 1, t))
    return MultiGraph.from_edges(sorted({v for e in edges for v in e}), edges)


def _distinct_layers(mds):
    return [len({id(ds) for ds in ods.layers}) for ods in mds.levels]


def _check_sharing_is_equality(mds):
    """Consecutive layers are one object exactly when they are equal."""
    for ods in mds.levels:
        for prev, ds in zip(ods.layers, ods.layers[1:]):
            assert (ds is prev) == (ds.fingerprint() == prev.fingerprint())


def test_equal_layers_are_one_shared_object(monkeypatch):
    """On the flat schedule a preprocess and a splice leave each level one
    distinct layer object, shared by its 9 indices at c = 2.  Layers with
    witness edges stay separate objects, also after a splice.  A clone or
    a restrict gives every index its own layer, so updating one leaves its
    siblings and the served stack unchanged."""
    calls = _spy_stack(monkeypatch)
    rng = random.Random(33)
    g = _components_graph(rng, [4, 3, 5])
    e = engine_preprocess(g, 2)
    impl = StackDS(e.schedule)
    for inst in (e.current, impl.initialize(g.copy())):
        assert [len(ods.layers) for ods in inst.levels] == \
            [9] * inst.level_count()
        assert _distinct_layers(inst) == [1] * inst.level_count()
    inst = impl.initialize(g.copy())
    op = DeleteEdge(*g.edge_keys()[0])
    spliced = impl.batch_update(inst, g, [op], apply_update(g.copy(), op))
    assert calls == {"splice": 1, "full": 0}
    assert _distinct_layers(spliced) == [1] * spliced.level_count()

    sched = make_schedule(1, 12, "desk", {"rounds": 1, "t": 20, "n_max": 20,
                                          "phi": Fraction(2, 5)})
    two = _triangle_chains(0, 10)
    impl = StackDS(sched)
    inst = impl.initialize(two.copy())
    assert _distinct_layers(inst)[0] == 3
    _check_sharing_is_equality(inst)
    op = DeleteEdge(10, 11)
    spliced = impl.batch_update(inst, two, [op], apply_update(two.copy(), op))
    assert calls == {"splice": 2, "full": 0}
    assert spliced.fingerprint() == \
        preprocess_multi_level(apply_update(two.copy(), op), sched
                               ).fingerprint()
    _check_sharing_is_equality(spliced)

    served = e.current
    before = served.fingerprint()
    x = min(g.vertex_list())
    for ods in served.levels:
        for copy in (ods.clone(), ods.restrict(component_of(ods.g, x))):
            layers = copy.layers
            assert len({id(ds) for ds in layers}) == len(layers)
            rest = [ds.fingerprint() for ds in layers[1:]]
            first = layers[0]
            first.ds_update(InsertTerminal(min(first.g.vertex_list())))
            first.ds_update(DeleteEdge(*first.g.edge_keys()[0]))
            assert [ds.fingerprint() for ds in layers[1:]] == rest
    assert served.fingerprint() == before


def test_repair_and_queries_build_no_graphds(monkeypatch):
    """The repair set reads plain graphs, and a query copies its levels
    through GraphDS.from_forest, so neither builds a GraphDS."""
    g = barbell()
    e = engine_preprocess(g, 2)
    built = []
    init = GraphDS.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GraphDS, "__init__", counting_init)
    with repair.recording() as log:
        assert repair.initial_ia(g, [0, 5], 3, 9, 1) == {(2, 3)}
        assert repair.repair_set(g, {0, 5}, g, {2}, 1, 3, 6) == {(2, 3)}
        assert cutpartition._layer_ia(g, {0, 5}, 3, 9, 1) == {(2, 3)}
        assert len(log) == 3
        assert not engine_query(e, 0, 4)     # the bridge is a 1-edge cut
        assert len(log) > 3
    assert e.query_stats[-1]["h_vertices"] > 0
    assert built == []


def test_engine_query_same_vertex():
    e = engine_preprocess(complete_graph(3), 2)
    assert engine_query(e, 1, 1)


def test_engine_query_nondestructive():
    e = engine_preprocess(barbell(), 2)
    before = e.fingerprint()
    engine_query(e, 0, 4)
    engine_query(e, 1, 2)
    assert e.fingerprint() == before


def _check_served_instances_stay_unchanged(rng, g):
    e = engine_preprocess(g, 2)
    held = [(e.current, e.current.fingerprint())]
    for step in range(20):
        present = g.edge_keys()
        absent = [(u, v) for u, v in itertools.combinations(g.vertex_list(), 2)
                  if not g.has_edge(u, v)]
        if absent and (step % 2 or len(present) < 7):
            u, v = rng.choice(absent)
            g.add_edge(u, v, 1)
            engine_update(e, InsertEdge(u, v, 1))
        else:
            u, v = rng.choice(present)
            g.remove_edge(u, v)
            engine_update(e, DeleteEdge(u, v))
        x, y = rng.sample(g.vertex_list(), 2)
        assert engine_query(e, x, y) == offline_oracle(g, x, y, 2)
        held.append((e.current, e.current.fingerprint()))
    for inst, fp in held:
        assert inst.fingerprint() == fp


def test_engine_served_instances_stay_unchanged():
    """The scheduler shares snapshots instead of cloning them, so no later
    update or query may mutate an instance the engine served earlier
    (the first one is also the scheduler's pinned preprocessing state)."""
    rng = random.Random(31)
    g = random_connected_graph(rng, 7, 4)
    _check_served_instances_stay_unchanged(rng, g)


def test_engine_served_instances_stay_unchanged_across_components():
    """On a graph of several components each batch splices its touched
    components into the served stack and shares the rest, so held
    snapshots share adjacency with later ones."""
    rng = random.Random(32)
    g = _components_graph(rng, [4, 3, 5])
    _check_served_instances_stay_unchanged(rng, g)


def _components_graph(rng, sizes):
    """Disjoint random connected graphs of the given sizes, each with
    about one extra edge, on consecutive vertex ids."""
    g = MultiGraph()
    base = 0
    for n in sizes:
        part = random_connected_graph(rng, n, 1)
        for v in part.vertex_list():
            g.add_vertex(base + v)
        for (u, v), _ in part.edge_items():
            g.add_edge(base + u, base + v, 1)
        base += n
    return g


def _stack_state(mds):
    """The fingerprint plus the edge count every graph of the stack keeps
    apart from its adjacency."""
    counts = tuple(h.distinct_edge_count() for ods in mds.levels
                   for h in [ods.g] + [ds.g for ds in ods.layers])
    return mds.fingerprint(), counts


def _spy_stack(monkeypatch):
    """Count the batches StackDS splices and the ones it rebuilds whole."""
    calls = {"splice": 0, "full": 0}
    in_batch = []
    splice = connectivity.splice_multi_level
    batch_update = StackDS.batch_update
    initialize = StackDS.initialize

    def spy_splice(*args):
        calls["splice"] += 1
        return splice(*args)

    def spy_batch_update(self, *args):
        in_batch.append(True)
        try:
            return batch_update(self, *args)
        finally:
            in_batch.pop()

    def spy_initialize(self, g):
        calls["full"] += bool(in_batch)
        return initialize(self, g)

    monkeypatch.setattr(connectivity, "splice_multi_level", spy_splice)
    monkeypatch.setattr(StackDS, "batch_update", spy_batch_update)
    monkeypatch.setattr(StackDS, "initialize", spy_initialize)
    return calls


@pytest.mark.parametrize("c", [1, 2, 3])
def test_engine_splice_matches_full_rebuild_fuzz(c, monkeypatch):
    """Every served stack equals a preprocess of its whole graph, over ops
    that merge components, split them and add vertices."""
    calls = _spy_stack(monkeypatch)
    rng = random.Random(70 + c)
    g = _components_graph(rng, [3, 4, 2])
    e = engine_preprocess(g, c, n_cap=g.vertex_count() + 3)
    seen = {"merge": 0, "split": 0, "add": 0}
    for _ in range(30):
        comps = components(g)
        present = g.edge_keys()
        r = rng.random()
        if r < 0.3 and len(comps) > 1:
            a, b = rng.sample(comps, 2)
            op = InsertEdge(rng.choice(sorted(a)), rng.choice(sorted(b)), 1)
            seen["merge"] += 1
        elif r < 0.45 and g.vertex_count() < e.n_cap:
            op = InsertEdge(rng.choice(g.vertex_list()),
                            max(g.vertex_list()) + 1, 1)
            g.add_vertex(op.v)
            seen["add"] += 1
        elif present:
            op = DeleteEdge(*rng.choice(present))
        else:
            continue
        if isinstance(op, InsertEdge):
            g.add_edge(op.u, op.v, 1)
        else:
            g.remove_edge(op.u, op.v)
            seen["split"] += len(components(g)) > len(comps)
        engine_update(e, op)
        # the image keeps its own edge count, which a splice must match
        full = preprocess_multi_level(e.reduction.multigraph, e.schedule)
        assert _stack_state(e.current) == _stack_state(full)
    assert min(seen.values()) > 0
    assert calls["splice"] > 0 and calls["full"] > 0


def test_stack_splice_on_a_two_level_schedule(monkeypatch):
    """On a desk schedule that stacks two levels, a batch whose touched
    components need another level count is rebuilt whole, the others are
    spliced, and both equal a preprocess of the whole graph.  No batch
    touches every component, so each rebuild is the level-count fallback."""
    calls = _spy_stack(monkeypatch)
    sched = make_schedule(1, 12, "desk", {"rounds": 1, "t": 20, "n_max": 20,
                                          "phi": Fraction(2, 5)})
    g = two_barbells()
    impl = StackDS(sched)
    inst = impl.initialize(g.copy())
    assert inst.level_count() == 2
    steps = [(DeleteEdge(4, 5), "splice"), (InsertEdge(4, 5, 1), "splice"),
             (DeleteEdge(12, 13), "full"), (InsertVertex(20), "full"),
             (InsertEdge(20, 0, 1), "splice"),
             (InsertEdge(12, 13, 1), "splice"),
             (InsertEdge(2, 12, 1), "full"), (DeleteEdge(2, 12), "full"),
             (InsertEdge(2, 4, 1), "splice"), (DeleteEdge(2, 4), "splice")]
    held = [(inst, inst.fingerprint())]
    for op, path in steps:
        before = dict(calls)
        inst = impl.batch_update(inst, g, [op], apply_update(g.copy(), op))
        apply_update(g, op)
        assert calls == {**before, path: before[path] + 1}
        assert _stack_state(inst) == \
            _stack_state(preprocess_multi_level(g, sched))
        held.append((inst, inst.fingerprint()))
    for inst, fp in held:
        assert inst.fingerprint() == fp
    # a stack that fails to shrink: the part's raise falls back to the full
    # rebuild, which raises as preprocess_multi_level does
    op = InsertEdge(0, 4, 1)
    with pytest.raises(RejectedOp):
        preprocess_multi_level(apply_update(g.copy(), op), sched)
    before = dict(calls)
    with pytest.raises(RejectedOp):
        impl.batch_update(inst, g, [op], apply_update(g.copy(), op))
    assert calls == {**before, "full": before["full"] + 1}


def _random_batch(rng, g, seen, cap):
    """One to four ops valid on g in order: merges of two components, edge
    deletes (tallied as splits when they split a component), edge inserts
    inside a component, vertex inserts up to `cap` vertices, and vertex
    deletes after deletes of the vertex's edges.  Returns the ops and g
    after them; g is unchanged."""
    h = g.copy()
    seq = []
    for _ in range(rng.randint(1, 4)):
        comps = components(h)
        r = rng.random()
        if r < 0.25 and len(comps) > 1:
            a, b = rng.sample(comps, 2)
            ops = [InsertEdge(rng.choice(sorted(a)), rng.choice(sorted(b)), 1)]
            seen["merge"] += 1
        elif (r < 0.4 and h.vertex_count() < cap) or not h.vertex_count():
            v = max(h.vertex_list(), default=-1) + 1
            ops = [InsertVertex(v)]
            if h.vertex_count() and rng.random() < 0.7:
                ops.append(InsertEdge(v, rng.choice(h.vertex_list()), 1))
            seen["add"] += 1
        elif r < 0.5:
            v = rng.choice(h.vertex_list())
            ops = [DeleteEdge(v, w) for w in h.neighbors(v)]
            ops.append(DeleteVertex(v))
            seen["delete"] += 1
        else:
            comp = sorted(rng.choice(comps))
            present = [e for e in h.edge_keys() if e[0] in comp]
            absent = [(u, v) for u, v in itertools.combinations(comp, 2)
                      if not h.has_edge(u, v)]
            if present and (not absent or rng.random() < 0.6):
                ops = [DeleteEdge(*rng.choice(present))]
                seen["split"] += len(components(
                    apply_update(h.copy(), ops[0]))) > len(comps)
            elif absent:
                ops = [InsertEdge(*rng.choice(absent), 1)]
            else:
                continue
        for op in ops:
            apply_update(h, op)
        seq.extend(ops)
    return seq, h


def _leaf_names(seq):
    """The vertices the leaf ops of seq name."""
    return {x for op in seq for x in ((op.u, op.v) if hasattr(op, "u")
                                      else (op.v,))}


def _check_index_and_charge(impl, steps, full, g_after, seq):
    """After one StackDS call: every indexed vertex's record is its
    component of the held graph and that component's distinct edge count,
    and the call charged impl.steps - steps as the rule below, which walks
    g_after whole.  An initialize (seq None) charges the vertices and
    distinct edges of g_after plus 1.  A batch charges len(seq), plus the
    vertices and distinct edges of every component of g_after that holds a
    vertex seq names when those are not the whole graph, plus an
    initialize for each of the `full` whole rebuilds it ran."""
    if impl.held is not None:
        held = impl.held.graph
        for v, (comp, edges) in impl.index.items():
            assert held.has_vertex(v) and comp == component_of(held, v)
            assert edges == sum(held.degree(u) for u in comp) // 2
    n, m = g_after.vertex_count(), g_after.distinct_edge_count()
    if seq is None:
        want = n + m + 1
    else:
        touched = set().union(*(
            component_of(g_after, v) for v in _leaf_names(seq)
            if g_after.has_vertex(v)))
        want = len(seq) + full * (n + m + 1)
        if len(touched) < n:
            want += len(touched) + sum(map(g_after.degree, touched)) // 2
        else:
            assert full == 1
    assert impl.steps - steps == want


@pytest.mark.parametrize("case", ["flat", "two-level"])
def test_stack_from_any_base_matches_preprocess_fuzz(case, monkeypatch):
    """StackDS builds each result from the instance it holds, not from the
    batch's parent.  Interleave batches from parents up to four outputs
    older than the held one, as a serve in a new window has, with
    initializes of graphs several ops behind it: every output equals a
    preprocess of its graph, a batch raises exactly when that preprocess
    does, and no call changes an earlier output or graph.  A re-initialize
    preprocesses its graph once, when first read, however often it is
    read.  On the two-level schedule the level-count fallback fires in a
    batch, batches raise, one of them on that fallback, and a raise leaves
    nothing held, so the next batch reads its base: once a re-initialize's
    unread output, once an older batch output.  After every call, raises
    included, the component index is exact and the step charge is the one
    a walk of the whole post-batch graph gives."""
    calls = _spy_stack(monkeypatch)
    made = []
    preprocess = connectivity.preprocess_multi_level

    def spy_preprocess(h, sched):
        made.append(h)
        return preprocess(h, sched)

    monkeypatch.setattr(connectivity, "preprocess_multi_level",
                        spy_preprocess)
    rng = random.Random(81 if case == "flat" else 82)
    if case == "flat":
        g = _components_graph(rng, [4, 3, 5, 2])
        sched = connectivity._flat_schedule(2, 40)
        cap, rounds = 40, 150
    else:     # the exact conductance check keeps these graphs small
        g = two_barbells()
        sched = make_schedule(1, 12, "desk", {"rounds": 1, "t": 20,
                                              "n_max": 20,
                                              "phi": Fraction(2, 5)})
        cap, rounds = 13, 40
    impl = StackDS(sched)

    def checked(call, g_after, seq=None):
        steps, full = impl.steps, calls["full"]
        try:
            return call()
        finally:
            _check_index_and_charge(impl, steps, calls["full"] - full,
                                    g_after, seq)

    def initialize(h):
        return checked(lambda: impl.initialize(h), h)

    def batch_update(inst, g_before, seq, g_after):
        return checked(lambda: impl.batch_update(inst, g_before, seq,
                                                 g_after), g_after, seq)

    history = [(g, initialize(g.copy()))]
    reinits = []
    if case == "two-level":
        # a barbell stacks two levels and two triangles one, so the part
        # of the first batch has another level count than the held stack
        g1 = apply_update(g.copy(), DeleteEdge(12, 13))
        history.append((g1, batch_update(history[0][1], g,
                                         [DeleteEdge(12, 13)], g1)))
        assert calls == {"splice": 0, "full": 1}
        g2 = apply_update(g1.copy(), DeleteEdge(2, 3))
        start = len(made)
        history.append((g2, initialize(g2)))
        reinits.append(g2)
        assert made[start:] == [] and calls == {"splice": 0, "full": 1}
        # the part raises, and so does the whole rebuild; nothing is held
        # after that, so the next batch splices into its own base: first
        # the re-initialize's unread output, then an older batch output
        op = DeleteEdge(4, 5)
        for j, full in ((2, 2), (1, 3)):
            with pytest.raises(RejectedOp):
                batch_update(history[1][1], g1, [InsertEdge(0, 4, 1)],
                             apply_update(g1.copy(), InsertEdge(0, 4, 1)))
            assert calls == {"splice": full - 2, "full": full}
            g_j, inst_j = history[j]
            out = batch_update(inst_j, g_j, [op],
                               apply_update(g_j.copy(), op))
            assert calls == {"splice": full - 1, "full": full}
            assert _stack_state(out) == _stack_state(
                preprocess_multi_level(apply_update(g_j.copy(), op), sched))
        assert history[2][1].level_count() == 1
        history.append((apply_update(g1.copy(), op), out))
        # the index records the rejoined barbell on 10..15, a raise keeps
        # it, and the next batch takes a base on which 10..15 are two
        # triangles, so it must take an empty index with it
        g3, inst3 = history[-1]
        g4 = apply_update(g3.copy(), InsertEdge(12, 13, 1))
        batch_update(inst3, g3, [InsertEdge(12, 13, 1)], g4)
        assert impl.index.keys() >= set(range(10, 16))
        with pytest.raises(RejectedOp):
            batch_update(impl.held, g4, [InsertEdge(10, 14, 1)],
                         apply_update(g4.copy(), InsertEdge(10, 14, 1)))
        assert calls == {"splice": 3, "full": 4}
        batch_update(history[1][1], g1, [op], g3)
        assert calls == {"splice": 4, "full": 4}
    outputs = [(inst, inst.fingerprint()) for _, inst in history]
    graphs = [(h, sorted(h.edge_items())) for h, _ in history]
    for h, inst in history:
        assert _stack_state(inst) == \
            _stack_state(preprocess_multi_level(h, sched))
    seen = {"merge": 0, "split": 0, "add": 0, "delete": 0, "older": 0,
            "behind": 0, "raise": 0}
    for _ in range(rounds):
        j = rng.randrange(max(0, len(history) - 5), len(history))
        g_j, inst_j = history[j]
        if rng.random() < 0.25:
            h = g_j.copy()
            out = initialize(h)
            reinits.append(h)
            seen["behind"] += j < len(history) - 3
            assert _stack_state(out) == \
                _stack_state(preprocess_multi_level(g_j, sched))
            outputs.append((out, out.fingerprint()))
            graphs.append((h, sorted(h.edge_items())))
            continue
        seq, g_new = _random_batch(rng, g_j, seen, cap)
        try:
            want = preprocess_multi_level(g_new, sched)
        except RejectedOp:
            with pytest.raises(RejectedOp):
                batch_update(inst_j, g_j, seq, g_new)
            seen["raise"] += 1
            continue
        seen["older"] += j < len(history) - 1
        out = batch_update(inst_j, g_j, seq, g_new)
        assert _stack_state(out) == _stack_state(want)
        history.append((g_new, out))
        outputs.append((out, out.fingerprint()))
        graphs.append((g_new, sorted(g_new.edge_items())))
    for inst, fp in outputs:
        assert inst.fingerprint() == fp
    for h, edges in graphs:
        assert sorted(h.edge_items()) == edges
    assert [sum(m is h for m in made) for h in reinits] == [1] * len(reinits)
    assert min(seen[k] for k in ("merge", "split", "add", "delete",
                                 "older", "behind")) > 0
    assert calls["splice"] > 0
    assert (seen["raise"] > 0) == (case == "two-level")


def _adjacency(g, v):
    return ({w: g.multiplicity(v, w) for w in g.neighbors(v)}
            if g.has_vertex(v) else None)


def _changed_part(g, base):
    """The vertices of the components of g that hold a vertex whose
    adjacency differs from base's."""
    part = set()
    for v in g.vertex_list():
        if v not in part and _adjacency(g, v) != _adjacency(base, v):
            part |= component_of(g, v)
    return part


def test_stack_preprocesses_only_what_changed(monkeypatch):
    """On a 12-community engine, each serve preprocesses only the
    components changed since the previous serve, not every one its window
    of up to 12 updates touched, and each level-0 re-initialize preprocesses
    nothing: its output is read only after a raise."""
    rng = random.Random(12)
    g = _components_graph(rng, [5] * 12)
    e = engine_preprocess(g, 2)
    inputs = []
    preprocess = connectivity.preprocess_multi_level

    def spy_preprocess(h, sched):
        inputs.append(h.vertices)
        return preprocess(h, sched)

    calls = []      # [method name, graphs it preprocessed]
    for name in ("initialize", "batch_update"):
        def spy(self, *args, _method=getattr(StackDS, name), _name=name):
            start = len(inputs)
            call = [_name]
            calls.append(call)
            out = _method(self, *args)
            call.append(inputs[start:])
            return out
        monkeypatch.setattr(StackDS, name, spy)
    monkeypatch.setattr(connectivity, "preprocess_multi_level",
                        spy_preprocess)
    reinits = 0
    for _ in range(40):
        k = rng.randrange(12)
        pairs = list(itertools.combinations(range(5 * k, 5 * k + 5), 2))
        present = [p for p in pairs if g.has_edge(*p)]
        absent = [p for p in pairs if not g.has_edge(*p)]
        if present and (not absent or rng.random() < 0.5):
            op = DeleteEdge(*rng.choice(present))
            g.remove_edge(op.u, op.v)
        else:
            op = InsertEdge(*rng.choice(absent), 1)
            g.add_edge(op.u, op.v, 1)
        served = e.current.graph
        calls.clear()
        inputs.clear()
        engine_update(e, op)
        # a level-0 window opens before the serve, in the same tick
        assert [name for name, _ in calls] in (
            ["batch_update"], ["initialize", "batch_update"])
        *reinit, (_, made) = calls
        assert [m for _, m in reinit] in ([], [[]])
        target = e.current.graph
        part = _changed_part(target, served)
        assert made == inputs == ([part] if part else [])
        assert len(part) < target.vertex_count()
        reinits += len(reinit)
    assert reinits == 6


def _check_forests_are_fresh(ods, seen):
    """Every layer's forest is the one a fresh GraphDS builds on its graph.
    Tallies the layers with witness edges, those where a component splits,
    and those where a component losing no edge keeps its tree."""
    for i, ds in enumerate(ods.layers):
        assert ds.forest == GraphDS(ds.g.copy(), ds.terminals).forest
        if i == 0:
            continue
        prev = ods.layers[i - 1]
        removed = set(prev.g.pairs()) - set(ds.g.pairs())
        if not removed:
            assert ds.forest == prev.forest
            continue
        seen["witness"] += 1
        seen["split"] += len(components(ds.g)) > len(components(prev.g))
        for comp in components(prev.g):
            tree = {e for e in prev.forest if e[0] in comp}
            if tree and not any(u in comp for u, _ in removed):
                assert tree <= ds.forest
                seen["kept"] += 1
                break


def test_derived_forests_equal_a_fresh_bfs(monkeypatch):
    """A witness layer with no witness edges is the layer before, forest
    included; on the flat schedule (no witness edges) and on a two-level desk
    schedule (with them) every layer of every preprocess has the forest a
    BFS of its graph gives, also in a stack that is then refused for
    failing to shrink."""
    seen = {"witness": 0, "split": 0, "kept": 0}
    checked = []
    preprocess = multilevel.cut_partition_preprocess

    def checking_preprocess(*args, **kwargs):
        ods = preprocess(*args, **kwargs)
        _check_forests_are_fresh(ods, seen)
        checked.append(ods)
        return ods

    monkeypatch.setattr(multilevel, "cut_partition_preprocess",
                        checking_preprocess)
    rng = random.Random(41)
    for c in (1, 2, 3):
        for _ in range(3):
            g = _components_graph(rng, [rng.randint(2, 6) for _ in range(3)])
            engine_preprocess(g, c)
    assert len(checked) == 9
    assert seen == {"witness": 0, "split": 0, "kept": 0}
    sched = make_schedule(1, 12, "desk", {"rounds": 1, "t": 20, "n_max": 20,
                                          "phi": Fraction(2, 5)})
    assert preprocess_multi_level(two_barbells(), sched).level_count() == 2
    rng = random.Random(42)
    for phi in (Fraction(2, 5), Fraction(1, 3)):
        sched = make_schedule(1, 40, "desk", {"rounds": 1, "t": 40,
                                              "n_max": 40, "phi": phi})
        for _ in range(12):
            g = _components_graph(rng, [rng.randint(4, 12) for _ in range(2)])
            try:
                preprocess_multi_level(g, sched)
            except RejectedOp:
                pass              # non-shrink diagnostic at this phi
    assert len(checked) >= 9 + 2 + 24
    assert min(seen.values()) > 0


def test_engine_update_refuses_vertices_beyond_n_cap():
    e = engine_preprocess(MultiGraph(), 1, n_cap=2)
    engine_update(e, InsertEdge(0, 1, 1))
    before = e.fingerprint()
    with pytest.raises(RejectedOp):
        engine_update(e, InsertEdge(1, 2, 1))
    assert e.fingerprint() == before
    assert not e.reduction.simple.has_vertex(2)


def test_refused_insert_leaves_the_engine_unchanged():
    """A self-loop at a new vertex and an edge to an id outside the 32-bit
    range are refused before any state changes: the fingerprint and the
    tracked vertices are as they were, and a valid insert and a query at
    the refused op's vertex still work."""
    e = engine_preprocess(cycle_graph(4), 2, n_cap=10)
    for op, fresh in ((InsertEdge(5, 5), 5), (InsertEdge(7, 1 << 32), 7),
                      (InsertEdge(-1, 0), -1)):
        before = e.fingerprint()
        vertices = e.reduction.simple.vertex_list()
        image = e.reduction.multigraph.vertex_list()
        with pytest.raises(RejectedOp):
            engine_update(e, op)
        assert e.fingerprint() == before
        assert e.reduction.simple.vertex_list() == vertices
        assert e.reduction.multigraph.vertex_list() == image
        if fresh >= 0:
            engine_update(e, InsertEdge(fresh, 0))
            engine_update(e, InsertEdge(fresh, 2))
            simple = e.reduction.simple
            for w in simple.vertex_list():
                assert engine_query(e, fresh, w) == \
                    offline_oracle(simple, fresh, w, 2)


def test_engine_insert_then_delete_query_equivalent():
    g = barbell()
    e = engine_preprocess(g, 2)
    engine_update(e, InsertEdge(0, 4, 1))
    engine_update(e, DeleteEdge(0, 4))
    vs = g.vertex_list()
    for u, w in itertools.combinations(vs, 2):
        assert engine_query(e, u, w) == offline_oracle(g, u, w, 2)


def test_engine_update_rejects_bad_ops():
    e = engine_preprocess(complete_graph(3), 2)
    with pytest.raises(RejectedOp):
        engine_update(e, InsertEdge(0, 1, 1))   # already present
    with pytest.raises(RejectedOp):
        engine_update(e, DeleteEdge(0, 9))      # absent


def test_engine_insert_grows_vertex_set():
    e = engine_preprocess(MultiGraph(), 1, n_cap=6)
    engine_update(e, InsertEdge(0, 1, 1))
    engine_update(e, InsertEdge(1, 2, 1))
    assert engine_query(e, 0, 2)
    engine_update(e, DeleteEdge(1, 2))
    assert not engine_query(e, 0, 2)


def test_engine_random_trace_invariants():
    """500-op random trace on 16 ids: image invariants hold after every op,
    a sample of queries matches the oracle, steps stay accounted."""
    rng = random.Random(23)
    n = 16
    e = engine_preprocess(MultiGraph(), 2, n_cap=n)
    shadow = MultiGraph()
    checked = 0
    for step in range(500):
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)]
        present = [(u, v) for u, v in pairs if shadow.has_edge(u, v)]
        absent = [(u, v) for u, v in pairs if not shadow.has_edge(u, v)]
        if present and (not absent or rng.random() < 0.45):
            u, v = rng.choice(present)
            shadow.remove_edge(u, v)
            engine_update(e, DeleteEdge(u, v))
        else:
            u, v = rng.choice(absent)
            for x in (u, v):
                if not shadow.has_vertex(x):
                    shadow.add_vertex(x)
            shadow.add_edge(u, v, 1)
            engine_update(e, InsertEdge(u, v, 1))
        e.reduction.check_invariants()
        assert e.reduction.simple == shadow
        if step % 25 == 0 and shadow.vertex_count() >= 2:
            x, y = rng.sample(shadow.vertex_list(), 2)
            assert engine_query(e, x, y) == offline_oracle(shadow, x, y, 2)
            checked += 1
    assert checked >= 15
    stats = e.scheduler.work_stats()
    assert len(e.scheduler.steps_per_update) == 500
    assert stats["total_steps"] == sum(e.scheduler.steps_per_update)


def test_engine_query_h_contains_anchors():
    e = engine_preprocess(barbell(), 2)
    engine_query(e, 0, 5)
    stat = e.query_stats[-1]
    assert stat["h_vertices"] >= 2
    assert stat["levels"] == e.current.level_count()
    assert len(stat["expansion"]) == stat["levels"] + 1


# -- queries on the anchors' component ---------------------------------------

def _check_restrictions(mds, g, sched):
    """Each level restricted to a component of g equals the level of a
    preprocess of that component alone, and the copy shares nothing with
    the level it was made from."""
    for comp in components(g):
        part = preprocess_multi_level(induced_subgraph(g, comp), sched)
        assert part.level_count() == mds.level_count()
        for ods, want in zip(mds.levels, part.levels):
            before = ods.fingerprint()
            got = ods.restrict(comp)
            assert got.fingerprint() == want.fingerprint()
            assert [h.distinct_edge_count() for h in
                    [got.g] + [ds.g for ds in got.layers]] == \
                [h.distinct_edge_count() for h in
                 [want.g] + [ds.g for ds in want.layers]]
            for ds in got.layers:
                ds.check_forest()
            x = min(got.g.vertex_list())
            got.g.add_vertex(-1)
            got.g.add_edge(x, -1, 1)
            for ds in got.layers:
                ds.ds_update(InsertVertex(-1))
                ds.ds_update(InsertEdge(x, -1, 1))
                ds.ds_update(InsertTerminal(x))
            assert ods.fingerprint() == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restrict_matches_preprocess_of_the_component(seed):
    rng = random.Random(80 + seed)
    e = engine_preprocess(_components_graph(rng, [4, 3, 5]), 1 + seed % 3)
    img = e.reduction.multigraph
    assert len(components(img)) == 3
    _check_restrictions(e.current, img, e.schedule)


def test_restrict_on_a_two_level_schedule():
    """On the 2-level desk schedule the upper level holds only some
    vertices of a component, and the layers have terminals; restricted
    levels also emit the query sequences that clones of whole levels do."""
    sched = make_schedule(1, 12, "desk", {"rounds": 1, "t": 20, "n_max": 20,
                                          "phi": Fraction(2, 5)})
    g = two_barbells()
    mds = preprocess_multi_level(g, sched)
    assert mds.level_count() == 2
    assert any(ds.terminals for ds in mds.levels[0].layers)
    _check_restrictions(mds, g, sched)
    for comp in components(g):
        base = min(comp)
        for a, b in [(0, 1), (0, 4), (2, 3)]:
            emitted = []
            for levels in ([ods.restrict(comp) for ods in mds.levels],
                           [ods.clone() for ods in mds.levels]):
                seq = [InsertVertex(-1), InsertVertex(-2),
                       InsertEdge(base + a, -1, 2),
                       InsertEdge(base + b, -2, 2)]
                out = []
                for ods in levels:
                    _, seq = cutpartition.cut_partition_update(
                        ods, seq, sched.phi_at(1))
                    out.append(seq)
                emitted.append(out)
            assert emitted[0] == emitted[1]


@pytest.mark.parametrize("c", [1, 2, 3])
def test_engine_query_matches_whole_graph_query_fuzz(c):
    """Over ops that merge and split components, every answer and every
    expansion tuple equals the query on clones of the whole levels, and a
    query never moves the engine's fingerprint."""
    rng = random.Random(90 + c)
    g = _components_graph(rng, [3, 4, 3])
    e = engine_preprocess(g, c)
    kinds = {"same": 0, "cross": 0}
    for _ in range(16):
        comps = components(g)
        present = g.edge_keys()
        if (rng.random() < 0.35 or not present) and len(comps) > 1:
            a, b = rng.sample(comps, 2)
            op = InsertEdge(rng.choice(sorted(a)), rng.choice(sorted(b)), 1)
            g.add_edge(op.u, op.v, 1)
        else:
            op = DeleteEdge(*rng.choice(present))
            g.remove_edge(op.u, op.v)
        engine_update(e, op)
        for _ in range(3):
            x, y = rng.sample(g.vertex_list(), 2)
            want, stats = whole_graph_query(e, x, y)
            before = e.fingerprint()
            got = engine_query(e, x, y)
            assert e.fingerprint() == before
            assert got == want == offline_oracle(g, x, y, c)
            if any(x in comp and y in comp for comp in components(g)):
                assert e.query_stats[-1] == stats
                kinds["same"] += 1
            else:
                assert e.query_stats[-1]["levels"] == stats["levels"]
                kinds["cross"] += 1
    assert min(kinds.values()) > 0


def test_cross_component_query_answers_without_an_update(monkeypatch):
    """Anchors in different components answer False before any level is
    copied or updated, and the query still records a full stats entry."""
    calls = []
    update = connectivity.cut_partition_update

    def spy(*args, **kwargs):
        calls.append(True)
        return update(*args, **kwargs)

    monkeypatch.setattr(connectivity, "cut_partition_update", spy)
    e = engine_preprocess(two_barbells(), 2)
    assert engine_query(e, 0, 1)
    assert calls and e.query_stats[-1]["h_vertices"] >= 2
    keys = set(e.query_stats[-1])
    calls.clear()
    before = e.fingerprint()
    assert not engine_query(e, 0, 14)
    assert not calls
    assert e.fingerprint() == before
    stat = e.query_stats[-1]
    assert set(stat) == keys and len(e.query_stats) == 2
    assert stat["levels"] == e.current.level_count()
    assert stat["expansion"] == (4,)
    assert (stat["h_vertices"], stat["h_edges"]) == (0, 0)


def test_queries_outside_a_trace_leave_no_repair_log(monkeypatch):
    """repair_set records its sizes only inside repair.recording(), so
    queries made outside a traced replay grow no list."""
    calls = []
    real = cutpartition.repair_set

    def spy(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(cutpartition, "repair_set", spy)

    def list_sizes():
        return {name: len(v) for name, v in vars(repair).items()
                if isinstance(v, list)}

    e = engine_preprocess(barbell(), 2)
    before = list_sizes()
    for i in range(300):
        engine_query(e, i % 3, 3 + i % 3)
    assert len(calls) >= 300
    assert list_sizes() == before
    assert not repair._LOGS
    with repair.recording() as outer:
        with repair.recording() as inner:
            engine_query(e, 0, 4)
        engine_query(e, 0, 4)
    assert 0 < len(inner) < len(outer) == 2 * len(inner)
    assert list_sizes() == before


@pytest.mark.parametrize("c,want", [
    (1, ("d5b5c3d8993b63fe", 48, 40)),
    (2, ("a8322af9f877aa4c", 41, 14)),
    (3, ("603d363c3a86f43c", 51, 36)),
])
def test_gen_workload_replay_is_unchanged(c, want):
    """Each query's answer, level count and H size, and the engine state
    after every op, on a gen_workload trace are what they were when
    update_partition diffed the final layer's contraction around each of
    its ops; the digests (and the query and True counts) were recorded
    from that implementation."""
    n = 12
    e = engine_preprocess(MultiGraph(), c, n_cap=n)
    digest = hashlib.sha256()
    answers = []
    for tl in gen_workload(n, 200, c):
        if tl.kind == "insert":
            engine_update(e, InsertEdge(tl.u, tl.v, 1))
        elif tl.kind == "delete":
            engine_update(e, DeleteEdge(tl.u, tl.v))
        else:
            answers.append(engine_query(e, tl.u, tl.v))
            s = e.query_stats[-1]
            digest.update(repr((answers[-1], s["levels"], s["h_vertices"],
                                s["h_edges"])).encode())
        digest.update(hashlib.sha1(repr(e.fingerprint()).encode()).digest())
    assert (digest.hexdigest()[:16], len(answers), sum(answers)) == want


def _benchmark_workloads():
    """The benchmark's workload module, perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _replay_digest_script():
    """scripts/replay_digest.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / \
        "replay_digest.py"
    spec = importlib.util.spec_from_file_location("_replay_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name,want", [
    ("churn-communities", "e15f38b860c56ebb1af5ef8ebd0d6945a747973f"),
    ("query-dense", "fed53354d5c404fcff3b6cb9bee36ed78eab2404"),
])
def test_benchmark_stream_replay_is_unchanged(name, want):
    """The replay digest of scripts/replay_digest.py over the first 8
    rounds of each benchmark workload's seed-1 op stream: one sha1 over
    every answer, every query_stats entry and the engine fingerprint after
    set-up and after every op.  The values were recorded before each
    cut-partition structure became the only source of its own t, c, gamma
    and params."""
    script = _replay_digest_script()
    bench = script._workloads()
    assert script.digest(bench, bench.WORKLOADS[name], 1, 8) == want


def test_ab_timing_script_runs_both_trees():
    """scripts/ab_timing.py with this tree on both sides, for 2 rounds:
    exit 0 (every query answered and recorded alike), one line per side
    with four times and the step count, equal steps (the same engine
    replayed the same ops), and a ratio line."""
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "ab_timing.py"), str(root),
         str(root), "--rounds", "2"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    head, a, b, ratio = out.splitlines()
    assert head == ("workload=churn-communities seed=1 rounds=2 updates=12 "
                    "queries=4")
    num = r"(\d+\.\d{3})"
    side = (rf"update_p50={num} update_p90={num} query_p50={num} "
            rf"query_p90={num} ms steps=(\d+) tree=(.+)")
    got = [re.fullmatch(rf"{label} {side}", line)
           for label, line in (("A", a), ("B", b))]
    assert all(got)
    assert got[0][5] == got[1][5] and int(got[0][5]) > 0
    assert re.fullmatch(rf"B/A median per-op ratio: update={num} "
                        rf"query={num}", ratio)


def test_ab_timing_script_fails_on_differing_query_stats(tmp_path):
    """scripts/ab_timing.py exits 1 when the two trees answer alike but
    record a query differently: here tree B's engine counts one H edge
    more in every query_stats entry."""
    root = Path(__file__).resolve().parent.parent
    pkg = tmp_path / "src" / "dynacut"
    shutil.copytree(root / "src" / "dynacut", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    conn = pkg / "connectivity.py"
    text = conn.read_text()
    assert text.count('"h_edges": ') == 2
    conn.write_text(text.replace('"h_edges": ', '"h_edges": 1 + '))
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "ab_timing.py"), str(root),
         str(tmp_path), "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    line, = run.stdout.splitlines()
    got = re.fullmatch(r"op \d+: query\(\d+,\d+\) answered (True|False) "
                        r"with \{.*'h_edges': (\d+).*\} on A and \1 with "
                        r"\{.*'h_edges': (\d+).*\} on B", line)
    assert got and int(got[3]) == int(got[2]) + 1


def test_setup_and_updates_run_none_of_the_query_path_changes(monkeypatch):
    """On the seed-1 op streams of both benchmark workloads,
    engine_preprocess and engine_update call neither the capped max-flow
    (under any module's name for it) nor a typed repair set, nor the
    query's decremental expander update and layer restriction, so the
    query-path changes to these change nothing that set-up and updates
    run.  The queries of the same streams call all of them, the flow both
    from type one's certificate and for the final answer."""
    calls = Counter()
    phase = ["setup"]

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[phase[0], name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for mod, name in ((cutprimitives, "_capped_maxflow"),
                      (repair, "_capped_maxflow"),
                      (connectivity, "_capped_maxflow"),
                      (repair, "type_one_repair_set"),
                      (repair, "type_two_repair_set"),
                      (repair, "type_three_repair_set"),
                      (cutpartition, "decremental_single_expander"),
                      (GraphDS, "restrict")):
        monkeypatch.setattr(mod, name,
                            spy(f"{mod.__name__}.{name}", getattr(mod, name)))
    bench = _benchmark_workloads()
    for wl in bench.WORKLOADS.values():
        stream = bench.OpStream(wl, 1)
        phase[0] = "setup"
        e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                    stream.initial_edges),
                              wl.c)
        rounds = stream.rounds()
        for _ in range(8):
            for kind, u, v in next(rounds):
                phase[0] = "query" if kind == "query" else "update"
                if kind == "query":
                    engine_query(e, u, v)
                elif kind == "delete":
                    engine_update(e, DeleteEdge(u, v))
                else:
                    engine_update(e, InsertEdge(u, v))
    assert not [key for key in calls if key[0] != "query"]
    for name in ("dynacut.repair._capped_maxflow",
                 "dynacut.connectivity._capped_maxflow",
                 "dynacut.repair.type_one_repair_set",
                 "dynacut.repair.type_two_repair_set",
                 "dynacut.repair.type_three_repair_set",
                 "dynacut.cutpartition.decremental_single_expander",
                 "GraphDS.restrict"):
        assert calls["query", name] > 0


def test_queries_copy_few_adjacency_dicts(monkeypatch):
    """Query copies share neighbour dicts with the served levels and copy
    one only before writing it: on the seed-1 query-dense op stream a
    query copies fewer than 100 dicts on average, where copying every dict
    of the restricted levels took over a thousand.  Every copy() and
    restrict() output holds its source's dicts themselves."""
    copied = [0]
    unshared = [0, 0]
    shares = [0, 0]
    unshare = MultiGraph._unshare

    def spy(self, u, v):
        before = self._adj[u], self._adj[v]
        unshare(self, u, v)
        copied[0] += sum(a is not b for a, b in zip(before, (self._adj[u],
                                                            self._adj[v])))

    def sharing(i, method):
        def wrapped(self, *args):
            out = method(self, *args)
            shares[i] += 1
            unshared[i] += sum(nbrs is not self._adj[v]
                               for v, nbrs in out._adj.items())
            return out
        return wrapped

    monkeypatch.setattr(MultiGraph, "_unshare", spy)
    monkeypatch.setattr(MultiGraph, "copy", sharing(0, MultiGraph.copy))
    monkeypatch.setattr(MultiGraph, "restrict",
                        sharing(1, MultiGraph.restrict))
    bench = _benchmark_workloads()
    wl = bench.WORKLOADS["query-dense"]
    stream = bench.OpStream(wl, 1)
    e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                stream.initial_edges), wl.c)
    rounds = stream.rounds()
    per_query = []
    for _ in range(8):
        for kind, u, v in next(rounds):
            if kind == "query":
                copied[0] = 0
                engine_query(e, u, v)
                per_query.append(copied[0])
            elif kind == "delete":
                engine_update(e, DeleteEdge(u, v))
            else:
                engine_update(e, InsertEdge(u, v))
    assert len(per_query) == 24 and min(per_query) > 0
    assert sum(per_query) < 100 * len(per_query)
    assert unshared == [0, 0] and min(shares) > 0


def test_each_update_is_applied_to_a_graph_once(monkeypatch):
    """On the seed-1 op streams of both benchmark workloads, engine_update
    applies each image op to two graphs only: the reduction image and the
    scheduler's graph.  So neither a serve nor a window re-applies its
    batch.  Every serve's graph is a copy of the graph the held instance
    was built from, the first serve's included, so changed_vertices never
    scans the whole graph: it compares only the copy's write log, which
    holds at most the vertices the newest op names, and of those it
    compares by value only the dicts the held graph does not share.
    engine_preprocess applies ops to the reduction image only, and to no
    scheduler graph."""
    applied = []            # the graph of every leaf op applied
    compared = []           # (among, dicts compared by value) per call
    apply_update = multigraph.apply_update
    changed_vertices = connectivity.changed_vertices

    def spy_apply(g, op):
        if not isinstance(op, CompositeOp):
            applied.append(g)
        return apply_update(g, op)

    def spy_changed(g, base, among=None):
        compared.append((among, sum(nbrs is not base._adj.get(v)
                                    for v, nbrs in g._adj.items())))
        return changed_vertices(g, base, among)

    for mod in (multigraph, onlinebatch):
        monkeypatch.setattr(mod, "apply_update", spy_apply)
    monkeypatch.setattr(connectivity, "changed_vertices", spy_changed)
    bench = _benchmark_workloads()
    for wl in bench.WORKLOADS.values():
        stream = bench.OpStream(wl, 1)
        applied.clear()
        e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                    stream.initial_edges),
                              wl.c)
        assert applied and all(g is e.reduction.multigraph for g in applied)
        rounds = stream.rounds()
        updates = 0
        for _ in range(8):
            for kind, u, v in next(rounds):
                if kind == "query":
                    continue
                applied.clear()
                compared.clear()
                engine_update(e, (DeleteEdge if kind == "delete"
                                  else InsertEdge)(u, v))
                updates += 1
                newest = e.scheduler.updates[-1]
                assert len(applied) <= 2 * len(newest.ops)
                assert len(compared) <= 1
                for among, by_value in compared:
                    assert among is not None and among <= newest.names
                    assert by_value <= len(among)
        assert updates > 0


def test_serve_walks_only_the_components_its_batch_changed(monkeypatch):
    """On the seed-1 op streams of both benchmark workloads, count the
    vertices the component walks (cutprimitives._reachable) visit inside
    StackDS.batch_update but outside preprocess_multi_level.  No serve
    walks a component twice, and on churn-communities a serve walks fewer
    than 30 vertices on average: the components of the vertices the newest
    op changed, not every one its window of up to 12 updates names (122.0
    a serve when those were all walked).  On query-dense the image is one
    component: each serve walks it once, rebuilds it whole and records
    nothing in the index."""
    walks = []              # the vertex sets walked in the current serve
    active = [False]
    reachable = cutprimitives._reachable
    batch_update = StackDS.batch_update
    preprocess = connectivity.preprocess_multi_level

    def spy_reachable(*args, **kwargs):
        out = reachable(*args, **kwargs)
        if active[0]:
            walks.append(out)
        return out

    def spy_batch_update(self, *args):
        active[0] = True
        try:
            return batch_update(self, *args)
        finally:
            active[0] = False

    def spy_preprocess(*args):
        was, active[0] = active[0], False
        try:
            return preprocess(*args)
        finally:
            active[0] = was

    monkeypatch.setattr(cutprimitives, "_reachable", spy_reachable)
    monkeypatch.setattr(StackDS, "batch_update", spy_batch_update)
    monkeypatch.setattr(connectivity, "preprocess_multi_level",
                        spy_preprocess)
    bench = _benchmark_workloads()
    mean = {}
    for name, wl in bench.WORKLOADS.items():
        stream = bench.OpStream(wl, 1)
        e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                    stream.initial_edges),
                              wl.c)
        rounds = stream.rounds()
        per_update = []
        for _ in range(8):
            for kind, u, v in next(rounds):
                if kind == "query":
                    continue
                walks.clear()
                engine_update(e, (DeleteEdge if kind == "delete"
                                  else InsertEdge)(u, v))
                walked = set().union(*walks)
                assert sum(map(len, walks)) == len(walked)
                per_update.append(len(walked))
                if name == "query-dense":
                    assert walks == [e.current.graph.vertices]
                    assert e.scheduler.impl.index == {}
        mean[name] = sum(per_update) / len(per_update)
    assert mean["churn-communities"] <= 30
    assert mean["query-dense"] == 99


def test_query_walks_read_components_off_the_forests(monkeypatch):
    """Over the seed-1 query-dense queries of 60 rounds, count the vertices
    the component walks (cutprimitives._reachable) visit per query.  The
    query path reads the components of the image and of the layer copies
    off their spanning forests, and walks only where a forest's tree count
    leaves a component open; repair asks CutSearch.piece, which walks the
    heavy-class quotient it already built, whether vertices fall in
    different components of g minus an edge set, and labels only the
    components of DS3 it reads: at most 82 vertices a query on average
    (81.7 measured; 177.9 when repair labelled g minus each edge set
    whole, 634.8 when the query walked the whole component four times
    before any cut work).  engine_query walks for the anchors' component
    only when level 0's layer 0 is not one tree."""
    walked = []
    engine_walks = []
    reachable = cutprimitives._reachable
    component_of_ = connectivity.component_of

    def spy_reachable(*args, **kwargs):
        out = reachable(*args, **kwargs)
        walked.append(len(out))
        return out

    def spy_component_of(*args):
        engine_walks.append(args)
        return component_of_(*args)

    monkeypatch.setattr(cutprimitives, "_reachable", spy_reachable)
    monkeypatch.setattr(connectivity, "component_of", spy_component_of)
    bench = _benchmark_workloads()
    wl = bench.WORKLOADS["query-dense"]
    stream = bench.OpStream(wl, 1)
    e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                stream.initial_edges), wl.c)
    rounds = stream.rounds()
    per_query = []
    one_tree = 0
    for _ in range(60):
        for kind, u, v in next(rounds):
            if kind != "query":
                engine_update(e, (DeleteEdge if kind == "delete"
                                  else InsertEdge)(u, v))
                continue
            layer0 = e.current.levels[0].layers[0]
            tree = len(layer0.forest) == e.current.graph.vertex_count() - 1
            walked.clear()
            engine_walks.clear()
            engine_query(e, u, v)
            per_query.append(sum(walked))
            assert len(engine_walks) == (0 if tree else 1)
            one_tree += tree
    assert len(per_query) == 180 and one_tree >= 150
    assert sum(per_query) / len(per_query) <= 82
