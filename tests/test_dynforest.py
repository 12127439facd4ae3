import random
from collections import deque

import pytest

from dynacut.dynforest import (
    DeleteTerminal, GraphDS, InsertTerminal, contracted_diff,
)
from dynacut.errors import RejectedOp
from dynacut.multigraph import (
    DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, MultiGraph,
    apply_seq, edge_key, induced_subgraph,
)

from util import (barbell, cycle_graph, partition_sparsifier, path_graph,
                  random_connected_graph, random_simple_graph)


def bfs_component(g, x):
    seen = {x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _check_trees(ds, g):
    """Each vertex's forest tree is its BFS component of g."""
    for x in g.vertex_list():
        assert ds._forest_side(x, None) == bfs_component(g, x)


def test_queries_c4():
    ds = GraphDS(cycle_graph(4))
    for x in range(4):
        assert ds._forest_side(x, None) == {0, 1, 2, 3}


def test_id_splits_on_deletion():
    ds = GraphDS(path_graph(3))
    ds.ds_update(DeleteEdge(1, 2))
    assert ds._forest_side(0, None) == {0, 1}
    assert ds._forest_side(2, None) == {2}
    _check_trees(ds, ds.g)


@pytest.mark.parametrize("seed", range(5))
def test_queries_match_bfs_oracle(seed):
    rng = random.Random(seed)
    g = random_simple_graph(rng, 30, 0.08)
    terms = set(rng.sample(range(30), 6))
    ds = GraphDS(g.copy(), terms)
    for _ in range(60):
        edges = g.edge_keys()
        if edges and rng.random() < 0.5:
            u, v = rng.choice(edges)
            ds.ds_update(DeleteEdge(u, v))
            g.remove_edge(u, v)
        else:
            u, v = rng.sample(range(30), 2)
            if not g.has_edge(u, v):
                ds.ds_update(InsertEdge(u, v, 1))
                g.add_edge(u, v, 1)
        ds.check_forest()
        x = rng.randrange(30)
        assert ds._forest_side(x, None) == bfs_component(g, x)
        _check_trees(ds, g)


def test_forest_delta_on_tree_edge_delete():
    ds = GraphDS(cycle_graph(4))
    before = set(ds.forest)
    tree_edge = sorted(before)[0]
    ds.ds_update(DeleteEdge(*tree_edge))
    after = set(ds.forest)
    assert len(before ^ after) == 2  # removed one, replacement entered
    ds.check_forest()


def test_insert_terminal_singleton_tree():
    g = MultiGraph.from_edges([0], [])
    ds = GraphDS(g)
    before = ds.contracted()
    ds.ds_update(InsertTerminal(0))
    assert contracted_diff(before, ds.contracted()) == []
    assert ds.contracted().vertex_count() == 0


def test_star_superedges():
    g = MultiGraph.from_edges([0, 1, 2, 3],
                              [(0, 1), (0, 2), (0, 3)])  # center 0
    ds = GraphDS(g, terminals={1, 2, 3})
    cg = ds.contracted()
    assert cg.vertices == {0, 1, 2, 3}
    assert set(cg.edge_keys()) == {(0, 1), (0, 2), (0, 3)}


def test_contraction_built_only_when_read(monkeypatch):
    calls = []
    build = GraphDS._compute_contraction

    def counted(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(GraphDS, "_compute_contraction", counted)
    rng = random.Random(31)
    ds = GraphDS(random_connected_graph(rng, 60, 40),
                 set(rng.sample(range(60), 8)))
    for i in range(20):
        if i % 3 == 0:
            ds.ds_update(DeleteEdge(*rng.choice(ds.g.edge_keys())))
        elif i % 3 == 1:
            u, v = rng.choice([(u, v) for u in range(60)
                               for v in range(u + 1, 60)
                               if not ds.g.has_edge(u, v)])
            ds.ds_update(InsertEdge(u, v, 1))
        else:
            ds.ds_update(InsertTerminal(rng.randrange(60)))
    assert calls == []
    cg = ds.contracted()
    assert len(calls) == 1
    assert ds.contracted() is cg
    assert len(calls) == 1


def brute_force_superedges(g, forest, terminals):
    """Independent path-decomposition construction over the forest."""
    adj = {v: [] for v in g.vertices}
    for u, v in forest:
        adj[u].append(v)
        adj[v].append(u)
    # keep only edges on terminal-to-terminal forest paths
    kept = set()
    terms = sorted(terminals)
    for i, s in enumerate(terms):
        for t in terms[i + 1:]:
            # path s..t in forest, if connected
            parent = {s: s}
            queue = deque([s])
            while queue and t not in parent:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in parent:
                        parent[v] = u
                        queue.append(v)
            if t not in parent:
                continue
            v = t
            while v != s:
                kept.add(edge_key(v, parent[v]))
                v = parent[v]
    kadj = {}
    for u, v in kept:
        kadj.setdefault(u, []).append(v)
        kadj.setdefault(v, []).append(u)
    nodes = {v for v, ns in kadj.items()
             if v in terminals or len(ns) >= 3}
    supers = set()
    seen_edges = set()
    for u in nodes:
        for first in kadj[u]:
            if edge_key(u, first) in seen_edges:
                continue
            seen_edges.add(edge_key(u, first))
            prev, cur = u, first
            while cur not in nodes:
                nxt = [w for w in kadj[cur] if w != prev][0]
                seen_edges.add(edge_key(cur, nxt))
                prev, cur = cur, nxt
            supers.add(edge_key(u, cur))
    return supers


@pytest.mark.parametrize("seed", range(10))
def test_superedges_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, 20, 6)
    terms = set(rng.sample(range(20), rng.randint(1, 6)))
    ds = GraphDS(g, terms)
    cg = ds.contracted()
    expect = brute_force_superedges(g, ds.forest, terms)
    assert set(cg.edge_keys()) == expect


@pytest.mark.parametrize("seed", range(12))
def test_update_seq_replays_contraction(seed):
    rng = random.Random(100 + seed)
    g = random_connected_graph(rng, 14, 5)
    terms = set(rng.sample(range(14), 4))
    ds = GraphDS(g, terms)
    shadow = ds.contracted().copy()
    lengths = []
    for _ in range(50):
        choice = rng.random()
        before = ds.contracted()
        try:
            if choice < 0.3:
                u, v = rng.sample(range(14), 2)
                ds.ds_update(InsertEdge(u, v, rng.randint(1, 3)))
            elif choice < 0.6:
                edges = ds.g.edge_keys()
                if not edges:
                    continue
                ds.ds_update(DeleteEdge(*rng.choice(edges)))
            elif choice < 0.8:
                ds.ds_update(InsertTerminal(rng.randrange(14)))
            else:
                ds.ds_update(DeleteTerminal(rng.randrange(14)))
        except RejectedOp:
            continue
        seq = contracted_diff(before, ds.contracted())
        lengths.append(len(seq))
        apply_seq(shadow, seq)
        assert shadow == ds.contracted()
    # O(1) contract: constant bound on every delta (see ledger note on the
    # forest-edge-deletion worst case)
    assert max(lengths, default=0) <= 16


def test_terminal_ops_delta_small():
    rng = random.Random(5)
    g = random_connected_graph(rng, 16, 4)
    ds = GraphDS(g, set(rng.sample(range(16), 3)))
    for v in range(16):
        for op in (InsertTerminal(v), DeleteTerminal(v)):
            before = ds.contracted()
            ds.ds_update(op)
            assert len(contracted_diff(before, ds.contracted())) <= 8


# -- partition contraction (Claim 2.5) ------------------------------------

def connectivity_classes(g, vertices):
    out = {}
    for v in vertices:
        out[v] = frozenset(bfs_component(g, v) & set(vertices))
    return out


@pytest.mark.parametrize("seed", range(15))
def test_contract_partition_claim(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(6, 25)
    g = random_simple_graph(rng, n, rng.uniform(0.1, 0.4))
    k = rng.randint(1, 4)
    coarse = [set() for _ in range(k)]
    for v in range(n):
        coarse[rng.randrange(k)].add(v)
    # the size bound needs every class to induce a connected subgraph
    from dynacut.cutprimitives import components
    partition = [set(comp) for p in coarse if p
                 for comp in components(induced_subgraph(g, p))]
    cg = partition_sparsifier(g, partition)
    boundary = [(u, v) for (u, v), _ in g.edge_items()
                if next(i for i, p in enumerate(partition) if u in p)
                != next(i for i, p in enumerate(partition) if v in p)]
    k = len({v for e in boundary for v in e})
    assert cg.vertex_count() <= 2 * k
    assert cg.distinct_edge_count() <= 2 * k + len(boundary)
    # connectivity preserved among contracted vertices
    for u in cg.vertex_list():
        for v in cg.vertex_list():
            if u < v:
                assert (v in bfs_component(g, u)) == \
                    (v in bfs_component(cg, u))


def test_contract_partition_two_stars():
    # two 3-leaf stars joined leaf to leaf: |V| + |E| = 17 > 3 * 3 boundary
    # edges, inside |V| <= 2K and |E| <= 2K + |B| with K = 6 endpoints
    g = MultiGraph.from_edges(range(8), [
        (0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
        (1, 5), (2, 6), (3, 7)])
    cg = partition_sparsifier(g, [{0, 1, 2, 3}, {4, 5, 6, 7}])
    assert cg.vertex_count() == 8
    assert cg.distinct_edge_count() == 9
    assert cg.vertex_count() <= 2 * 6
    assert cg.distinct_edge_count() <= 2 * 6 + 3


def test_contract_partition_barbell():
    g = barbell()
    cg = partition_sparsifier(g, [{0, 1, 2}, {3, 4, 5}], gamma=2)
    assert set(cg.vertices) == {2, 3}
    assert cg.multiplicity(2, 3) == 1
