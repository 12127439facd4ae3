"""Tests of the benchmark itself: its generator, its independent check, its
tail rule and its tracing.  Run with `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import random
import sys
from itertools import combinations, islice

import networkx as nx
import pytest

from dynacut import connectivity as conn
from dynacut.errors import RejectedOp
from dynacut.multigraph import DeleteEdge, InsertEdge, MultiGraph

import layers
from model import c_connected
from replay import MIN_TAIL_SAMPLES, min_rounds, p90
from workloads import WORKLOADS, OpStream


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    wl = WORKLOADS[name]
    a, b, other = OpStream(wl, 7), OpStream(wl, 7), OpStream(wl, 8)
    assert a.initial_edges == b.initial_edges
    assert list(islice(a.rounds(), 30)) == list(islice(b.rounds(), 30))
    assert list(islice(other.rounds(), 30)) != \
        list(islice(OpStream(wl, 7).rounds(), 30))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_is_valid_at_every_prefix(name, seed):
    wl = WORKLOADS[name]
    stream = OpStream(wl, seed)
    community = {v: v // wl.size for v in stream.initial_vertices}
    assert len(community) == wl.communities * wl.size
    edges = set(stream.initial_edges)
    assert len(edges) == wl.communities * wl.edges
    assert all(community[u] == community[v] and u < v for u, v in edges)
    for rnd in islice(stream.rounds(), 60):
        assert "".join(k[0].upper() for k, _, _ in rnd) == wl.pattern
        for kind, u, v in rnd:
            assert community[u] == community[v] and u != v
            if kind == "delete":
                assert (u, v) in edges
                edges.remove((u, v))
            elif kind == "insert":
                assert u < v and (u, v) not in edges
                edges.add((u, v))
                assert len(edges) == wl.communities * wl.edges
        assert len(edges) == wl.communities * wl.edges


def _brute_min_cut(g: nx.Graph, u: int, v: int) -> int:
    """Fewest edges leaving any vertex set that holds u but not v."""
    rest = [x for x in g.nodes if x not in (u, v)]
    best = g.number_of_edges()
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            side = {u, *extra}
            best = min(best, sum(1 for a, b in g.edges
                                 if (a in side) != (b in side)))
    return best


def test_independent_check_agrees_with_brute_force_min_cut():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        pairs = list(combinations(range(n), 2))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(rng.sample(pairs, rng.randint(0, len(pairs))))
        for u, v in pairs:
            cut = _brute_min_cut(g, u, v)
            for c in (1, 2, 3):
                assert c_connected(g, u, v, c) == (cut >= c)
                checked += 1
    assert checked > 500


def test_p90_needs_enough_samples():
    assert p90([1.0] * (MIN_TAIL_SAMPLES - 1)) is None
    samples = [float(x) for x in range(MIN_TAIL_SAMPLES)]
    assert 88.0 < p90(samples) < 91.0
    for wl in WORKLOADS.values():
        rounds = min_rounds(wl)
        assert rounds * wl.updates_per_round >= MIN_TAIL_SAMPLES
        assert rounds * wl.queries_per_round >= MIN_TAIL_SAMPLES


def _all_bindings():
    """Identity of every name a dynacut module or traced class holds."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "dynacut" or name.startswith("dynacut."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = member
    return snap


def _small_engine():
    g = MultiGraph.from_edges(range(6), [(0, 1), (1, 2), (2, 0), (2, 3),
                                         (3, 4), (4, 5), (5, 3)])
    return conn.engine_preprocess(g, 2)


def test_traced_run_restores_every_binding():
    e = _small_engine()
    before = _all_bindings()
    with layers.traced() as tr:
        during = _all_bindings()
        conn.engine_update(e, InsertEdge(0, 3))
        assert conn.engine_query(e, 0, 4) is True
        conn.engine_update(e, DeleteEdge(0, 3))
        assert conn.engine_query(e, 0, 4) is False
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(during[k] is not before[k] for k in before)
    # the calls repair makes through its own binding were seen
    assert tr.calls["cutprimitives.enumerate_simple_cuts"] > 0
    assert tr.calls["connectivity.engine_update"] == 2
    assert tr.calls["connectivity.engine_query"] == 2
    metrics = layers.layer_metrics(tr, 2, e.query_stats[-2:], 1)
    assert set(metrics) == set(layers.PER_LAYER)


def test_traced_run_restores_bindings_when_the_engine_raises():
    e = _small_engine()
    before = _all_bindings()
    with pytest.raises(RejectedOp):
        with layers.traced():
            conn.engine_update(e, DeleteEdge(0, 4))     # absent edge
    after = _all_bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_wrapped_children():
    tr = layers.Trace()

    def child():
        return sum(range(20000))

    wrapped_child = tr.wrap("c", child)

    def parent():
        return wrapped_child() + wrapped_child()

    tr.wrap("p", parent)()
    assert tr.calls["c"] == 2 and tr.calls["p"] == 1
    assert tr.self_time["p"] == pytest.approx(tr.total["p"] - tr.total["c"])
    assert 0 <= tr.self_time["p"] < tr.total["p"]
