import random
from collections import deque

import pytest

from dynacut import cutprimitives, dynforest
from dynacut.dynforest import (
    DeleteTerminal, GraphDS, InsertTerminal, contracted_diff,
)
from dynacut.errors import RejectedOp
from dynacut.multigraph import (
    DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, MultiGraph,
    apply_seq, apply_update, edge_key, induced_subgraph,
)

from util import (barbell, cycle_graph, partition_sparsifier, path_graph,
                  random_connected_graph, random_multigraph,
                  random_simple_graph)


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


def _one_sided_tree(g, forest, x):
    """x's tree of `forest`, walked over g."""
    seen = {x}
    stack = [x]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen and edge_key(u, v) in forest:
                seen.add(v)
                stack.append(v)
    return seen


def _one_sided_update(g, forest, op):
    """The forest rule that walks u's whole side: an inserted edge joins
    when v is not in u's tree; a deleted forest edge is replaced by the
    least edge leaving u's side.  g has had op applied already."""
    e = edge_key(op.u, op.v)
    if isinstance(op, InsertEdge):
        if op.v not in _one_sided_tree(g, forest, op.u):
            forest.add(e)
    elif e in forest:
        forest.discard(e)
        side = _one_sided_tree(g, forest, op.u)
        repl = min((edge_key(a, b) for a in side for b in g.neighbors(a)
                    if b not in side), default=None)
        if repl is not None:
            forest.add(repl)


@pytest.mark.parametrize("seed", range(8))
def test_forest_matches_one_sided_rule_fuzz(seed):
    """After every op of a random stream of edge, vertex and terminal ops
    the forest spans g and equals the forest of the rule that walks u's
    whole side, so walking the smaller side changes no forest."""
    rng = random.Random(300 + seed)
    n = rng.randint(8, 30)
    g = random_simple_graph(rng, n, rng.uniform(0.15, 0.4))
    ds = GraphDS(g.copy(), set(rng.sample(range(n), 3)))
    ref_g, ref_forest = g, set(ds.forest)
    replaced = joined = 0
    for _ in range(150):
        verts = ref_g.vertex_list()
        choice = rng.random()
        if choice < 0.35 and ref_g.distinct_edge_count():
            op = DeleteEdge(*rng.choice(ref_g.edge_keys()))
        elif choice < 0.7:
            u, v = rng.sample(verts, 2)
            if ref_g.has_edge(u, v):
                continue
            op = InsertEdge(u, v, rng.randint(1, 3))
        elif choice < 0.8:
            op = InsertVertex(max(verts) + 1)
        elif choice < 0.85:
            free = [v for v in verts
                    if ref_g.is_isolated(v) and v not in ds.terminals]
            if not free or len(verts) <= 2:
                continue
            op = DeleteVertex(rng.choice(free))
        elif choice < 0.95:
            op = InsertTerminal(rng.choice(verts))
        else:
            op = DeleteTerminal(rng.choice(verts))
        before = set(ref_forest)
        ds.ds_update(op)
        if isinstance(op, (InsertEdge, DeleteEdge, InsertVertex,
                           DeleteVertex)):
            apply_update(ref_g, op)
        if isinstance(op, (InsertEdge, DeleteEdge)):
            _one_sided_update(ref_g, ref_forest, op)
        replaced += len(before - ref_forest) == len(ref_forest - before) == 1
        joined += len(ref_forest) > len(before)
        ds.check_forest()
        assert ds.g == ref_g
        assert ds.forest == ref_forest
    assert replaced >= 3 and joined >= 3


@pytest.mark.parametrize("seed", range(8))
def test_touched_components_match_the_walk_fuzz(monkeypatch, seed):
    """After every op of a random stream on a random multigraph (edge
    inserts, deletes of every edge at a vertex, single deletes and terminal
    ops), GraphDS.touched_components equals the walk of
    cutprimitives.touched_components as a list, for random vertex lists
    with repeats that often hold an isolated vertex.  Both the branch that
    reads the forest's tree count and the walk fallback run."""
    calls = {"read": 0, "walk": 0}
    walk = dynforest.touched_components

    def spy_walk(g, xs):
        calls["walk"] += 1
        return walk(g, xs)

    monkeypatch.setattr(dynforest, "touched_components", spy_walk)
    rng = random.Random(700 + seed)
    n = rng.randint(6, 16)
    g = random_multigraph(rng, n, rng.uniform(0.1, 0.35))
    if seed % 2:
        for v in range(1, n):
            if not g.has_edge(v - 1, v):
                g.add_edge(v - 1, v, rng.randint(1, 3))
    ds = GraphDS(g, set(rng.sample(range(n), 2)))
    for _ in range(120):
        choice = rng.random()
        x = rng.randrange(n)
        if choice < 0.25:
            for y in ds.g.neighbors(x):
                ds.ds_update(DeleteEdge(x, y))
        elif choice < 0.45 and ds.g.distinct_edge_count():
            ds.ds_update(DeleteEdge(*rng.choice(ds.g.edge_keys())))
        elif choice < 0.8:
            y = rng.randrange(n)
            if y != x and not ds.g.has_edge(x, y):
                ds.ds_update(InsertEdge(x, y, rng.randint(1, 3)))
        elif choice < 0.9:
            ds.ds_update(InsertTerminal(x))
        else:
            ds.ds_update(DeleteTerminal(x))
        alone = [v for v in range(n) if ds.g.is_isolated(v)]
        for _ in range(3):
            xs = rng.choices(range(n), k=rng.randint(0, 4))
            if alone and rng.random() < 0.6:
                xs.append(rng.choice(alone))
            walks = calls["walk"]
            got = ds.touched_components(xs)
            calls["read"] += calls["walk"] == walks
            assert got == cutprimitives.touched_components(ds.g, xs)
    assert calls["read"] > 0 and calls["walk"] > 0


def _adjacency_reads(monkeypatch, ds, op):
    """How many adjacency lists of ds.g applying op reads."""
    reads = [0]
    adjacent = MultiGraph.adjacent

    def spy(self, v):
        reads[0] += 1
        return adjacent(self, v)

    monkeypatch.setattr(MultiGraph, "adjacent", spy)
    ds.ds_update(op)
    monkeypatch.setattr(MultiGraph, "adjacent", adjacent)
    return reads[0]


@pytest.mark.parametrize("cut", [1, 9])
def test_edge_ops_walk_the_smaller_tree(monkeypatch, cut):
    """Cutting a short tail off a long path, or a leaf off a big star,
    reads a number of adjacency lists bounded by the tail, whichever end
    the op names first, and so does joining the tail back on.  A chord
    between two close vertices of the path reads a few lists."""
    n = 300
    star = MultiGraph.from_edges(range(n), [(0, v) for v in range(1, n)])
    for g, (u, v) in ((path_graph(n), (n - 1 - cut, n - cut)),
                      (star, (0, n - 1))):
        small = cut if g is not star else 1
        for first, second in ((u, v), (v, u)):
            ds = GraphDS(g.copy())
            assert _adjacency_reads(monkeypatch, ds,
                                    DeleteEdge(first, second)) <= 3 * small
            assert _adjacency_reads(monkeypatch, ds,
                                    InsertEdge(first, second, 1)) <= 2 * small
            ds.check_forest()
    ds = GraphDS(path_graph(n))
    assert _adjacency_reads(monkeypatch, ds,
                            InsertEdge(n // 2, n // 2 + 2, 1)) <= 4
    ds.check_forest()


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


class _NonemptyLooking(set):
    """A terminal set that reads as nonempty even when it holds nothing,
    so the contraction skips its no-terminal shortcut."""

    def __bool__(self):
        return True


def test_contraction_without_terminals_is_empty_fuzz():
    """A layer with no terminals contracts to the empty graph at once; the
    full prune-and-walk, forced on, gives the same empty graph, also after
    edge ops and after every terminal was deleted again."""
    rng = random.Random(45)
    for _ in range(60):
        g = random_multigraph(rng, rng.randrange(0, 12), rng.random() * 0.5)
        verts = g.vertex_list()
        ds = GraphDS(g, rng.sample(verts, min(len(verts), rng.randrange(3))))
        for _ in range(rng.randrange(6)):
            u, v = rng.sample(verts, 2) if len(verts) > 1 else (0, 0)
            if u == v:
                break
            ds.ds_update(DeleteEdge(u, v) if g.has_edge(u, v)
                         else InsertEdge(u, v, 1))
        for x in sorted(ds.terminals):
            ds.ds_update(DeleteTerminal(x))
        got = ds.contracted()
        ds.terminals = _NonemptyLooking()
        assert got == ds._compute_contraction() == MultiGraph()
