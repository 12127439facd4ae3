import random

import pytest

from dynacut.errors import RejectedOp
from dynacut.connectivity import edge_connectivity
from dynacut.cutprimitives import components
from dynacut.multigraph import (
    CompositeOp, DeleteEdge, DeleteVertex, InsertEdge, InsertVertex,
    MultiGraph, ReductionImage, apply_update, changed_vertices,
    degree_reduce, gadget_id, induced_subgraph, named_vertices, simple_view,
    splice_graph,
)

from util import complete_graph, random_multigraph, random_simple_graph


def test_insert_edge_basic():
    g = MultiGraph.from_edges([0, 1], [])
    apply_update(g, InsertEdge(0, 1, 3))
    assert g.multiplicity(0, 1) == 3
    assert g.distinct_edge_count() == 1


def test_delete_edge_removes_all_multiplicity():
    g = MultiGraph.from_edges([0, 1], [(0, 1, 5)])
    apply_update(g, DeleteEdge(0, 1))
    assert not g.has_edge(0, 1)
    assert g.distinct_edge_count() == 0


def test_delete_nonisolated_vertex_rejected():
    g = MultiGraph.from_edges([0, 1], [(0, 1)])
    with pytest.raises(RejectedOp):
        apply_update(g, DeleteVertex(1))


def test_insert_existing_edge_rejected():
    g = MultiGraph.from_edges([0, 1], [(0, 1)])
    with pytest.raises(RejectedOp):
        apply_update(g, InsertEdge(0, 1, 2))


def test_self_loop_rejected():
    g = MultiGraph.from_edges([0], [])
    with pytest.raises(RejectedOp):
        g.add_edge(0, 0)


def test_simple_view():
    assert simple_view(MultiGraph()) == MultiGraph()
    g = MultiGraph.from_edges([0, 1], [(0, 1, 7)])
    assert simple_view(g).multiplicity(0, 1) == 1
    k3 = MultiGraph.from_edges(range(3), [(0, 1, 2), (1, 2, 5), (0, 2, 1)])
    s = simple_view(k3)
    assert s.edge_keys() == k3.edge_keys()
    assert all(m == 1 for _, m in s.edge_items())


# -- degree reduction ------------------------------------------------------

def test_degree_reduce_single_edge():
    g = MultiGraph.from_edges([0, 1], [(0, 1)])
    img = degree_reduce(g, c=2)
    rg = img.multigraph
    assert rg.vertex_count() == 4
    mults = sorted(m for _, m in rg.edge_items())
    assert mults == [1, 3, 3]
    img.check_invariants()


def test_degree_reduce_k3():
    img = degree_reduce(complete_graph(3), c=2)
    rg = img.multigraph
    assert rg.vertex_count() == 9
    mults = sorted(m for _, m in rg.edge_items())
    assert mults == [1, 1, 1, 3, 3, 3, 3, 3, 3]
    img.check_invariants()


def test_degree_reduce_k4_connectivity():
    g = complete_graph(4)
    img = degree_reduce(g, c=3)
    for u in range(4):
        for w in range(u + 1, 4):
            lam = edge_connectivity(g, u, w, 3)
            lam_img = edge_connectivity(img.multigraph, img.anchor(u),
                                        img.anchor(w), 3)
            assert lam == lam_img == 3


@pytest.mark.parametrize("seed", range(8))
def test_degree_reduce_preserves_capped_connectivity(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    g = random_simple_graph(rng, n, rng.uniform(0.2, 0.7))
    c = rng.randint(1, 4)
    img = degree_reduce(g, c)
    img.check_invariants()
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    for u, w in rng.sample(pairs, min(6, len(pairs))):
        assert edge_connectivity(g, u, w, c) == \
            edge_connectivity(img.multigraph, img.anchor(u), img.anchor(w), c)


def test_reduce_update_random_sequence_invariants():
    rng = random.Random(7)
    n = 12
    img = ReductionImage(c=2)
    for v in range(n):
        img.add_original_vertex(v)
    shadow = MultiGraph()
    for v in range(n):
        shadow.add_vertex(v)
    for _ in range(200):
        u, w = rng.sample(range(n), 2)
        if shadow.has_edge(u, w):
            seq = img.reduce_update(DeleteEdge(u, w))
            shadow.remove_edge(u, w)
        else:
            seq = img.reduce_update(InsertEdge(u, w))
            shadow.add_edge(u, w, 1)
        assert len(seq) <= 9
        img.check_invariants()
        assert img.simple == shadow


def test_reduce_update_first_and_last_edge():
    img = ReductionImage(c=2)
    img.add_original_vertex(0)
    img.add_original_vertex(1)
    seq = img.reduce_update(InsertEdge(0, 1))
    assert len(seq) == 5
    img.check_invariants()
    seq = img.reduce_update(DeleteEdge(0, 1))
    img.check_invariants()
    assert img.multigraph.vertices == {gadget_id(0, 0), gadget_id(1, 1)}


def test_reduction_degree_bound():
    rng = random.Random(3)
    g = random_simple_graph(rng, 10, 0.8)
    img = degree_reduce(g, 3)
    assert max(img.multigraph.degree(v)
               for v in img.multigraph.vertex_list()) <= 3


def _adjacency_order(g):
    return [(v, list(nbrs.items())) for v, nbrs in g._adj.items()]


def test_induced_subgraph_matches_filtered_edge_items():
    """Same vertices, edges, edge count and insertion order as adding the
    kept vertices in sorted order and then g.edge_items() restricted to
    them."""
    rng = random.Random(9)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(0, 12), 0.4)
        vs = g.vertex_list()
        keep = set(rng.sample(vs, rng.randint(0, len(vs))))
        want = MultiGraph.from_edges(
            sorted(keep), [(u, v, m) for (u, v), m in g.edge_items()
                           if u in keep and v in keep])
        sub = induced_subgraph(g, keep)
        assert _adjacency_order(sub) == _adjacency_order(want)
        assert sub.distinct_edge_count() == want.distinct_edge_count()
    with pytest.raises(RejectedOp):
        induced_subgraph(complete_graph(3), [0, 7])


def test_splice_graph_shares_kept_adjacency():
    g = MultiGraph.from_edges(range(5), [(0, 1, 2), (1, 2), (3, 4)])
    part = MultiGraph.from_edges([3, 5], [(3, 5, 4)])
    out = splice_graph(g, [3, 4], part)
    assert out == MultiGraph.from_edges([0, 1, 2, 3, 5],
                                        [(0, 1, 2), (1, 2), (3, 5, 4)])
    assert out.distinct_edge_count() == 3
    assert out._adj[0] is g._adj[0] and out._adj[3] is part._adj[3]
    assert g.has_vertex(4) and g.has_edge(3, 4)


def test_splice_graph_with_a_drop_overlapping_part_fuzz():
    """`drop` may share vertices with part, as in every engine splice: a
    union of components of base is dropped and part brings back some of
    those vertices, with other edges, beside new ones.  The result is base
    on the kept vertices plus part, by value and in its distinct edge
    count."""
    rng = random.Random(31)
    overlaps = 0
    for _ in range(200):
        base = random_multigraph(rng, rng.randrange(1, 12), 0.25)
        drop = _union_of_components(rng, base)
        kept = set(base.vertex_list()) - drop
        verts = rng.sample(sorted(drop), rng.randint(0, len(drop)))
        verts += [100 + i for i in range(rng.randrange(3))]
        part = MultiGraph.from_edges(verts, [])
        for u in verts:
            for v in verts:
                if u < v and rng.random() < 0.4:
                    part.add_edge(u, v, rng.randint(1, 3))
        want = base.restrict(kept)
        for v in part.vertex_list():
            want.add_vertex(v)
        for (u, v), m in part.edge_items():
            want.add_edge(u, v, m)
        out = splice_graph(base, drop, part)
        assert out == want
        assert out.distinct_edge_count() == want.distinct_edge_count()
        overlaps += bool(drop & set(verts)) and part.distinct_edge_count() > 0
    assert overlaps >= 50


def _check_against(g, ref):
    """g holds exactly the adjacency `ref`, each neighbour dict in ref's
    insertion order, and counts its distinct edges right."""
    assert g._adj.keys() == ref.keys()
    for v, nbrs in ref.items():
        assert list(g._adj[v].items()) == list(nbrs.items())
    assert g.distinct_edge_count() == sum(map(len, ref.values())) // 2


def _union_of_components(rng, g):
    comps = components(g)
    return set().union(*rng.sample(comps, rng.randint(0, len(comps))))


def test_copy_on_write_aliasing_fuzz():
    """Chains of copy, restrict and splice_graph share neighbour dicts, and
    any graph of a chain, a source included, may be written afterwards: a
    write to one never shows in another.  Each graph is checked against a
    reference adjacency kept as a deep copy, after every op.  Fresh graphs
    that own every dict join the chains too."""
    rng = random.Random(23)
    copies = writes = 0
    for _ in range(50):
        g0 = random_multigraph(rng, rng.randint(0, 9), 0.15)
        pool = [(g0, {v: dict(n) for v, n in g0._adj.items()})]
        g, ref = g0, pool[0][1]
        for _ in range(80):
            if rng.random() < 0.4:      # runs of ops on one graph
                g, ref = rng.choice(pool)
            kind = rng.choice((0, 1, 1, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7))
            if kind == 7:
                # a graph that owns all its dicts, as one never copied
                # does; its dicts are in sorted order
                h = induced_subgraph(g, ref)
                assert h._adj == ref
                pool.append((h, {v: dict(n) for v, n in h._adj.items()}))
            elif kind == 0:
                pool.append((g.copy(), {v: dict(n) for v, n in ref.items()}))
                copies += 1
            elif kind == 1:
                keep = _union_of_components(rng, g)
                if rng.random() < 0.2:
                    keep = set(ref)     # the whole graph
                keep |= {97, 98}        # absent vertices are skipped
                pool.append((g.restrict(keep),
                             {v: dict(n) for v, n in ref.items()
                              if v in keep}))
                copies += 1
            elif kind == 2:
                drop = _union_of_components(rng, g)
                kept = set(ref) - drop
                h, h_ref = rng.choice(pool)
                part_vs = set().union(*(comp for comp in components(h)
                                        if kept.isdisjoint(comp)))
                if rng.random() < 0.5:
                    part = h.restrict(part_vs)
                else:
                    part = induced_subgraph(h, part_vs)
                    h_ref = part._adj
                out = splice_graph(g, drop, part)
                out_ref = {v: dict(n) for v, n in ref.items()
                           if v not in drop}
                out_ref.update((v, dict(h_ref[v])) for v in part_vs)
                pool.append((part, {v: dict(h_ref[v]) for v in part_vs}))
                pool.append((out, out_ref))
                copies += 2
            else:
                vs = list(ref)
                absent = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if v not in ref[u]]
                present = [(u, v) for u in vs for v in ref[u] if u < v]
                isolated = [v for v in vs if not ref[v]]
                if kind == 3 and absent:
                    u, v = rng.choice(absent)
                    m = rng.randint(1, 3)
                    g.add_edge(u, v, m)
                    ref[u][v] = ref[v][u] = m
                elif kind == 4 and present:
                    u, v = rng.choice(present)
                    g.remove_edge(u, v)
                    del ref[u][v], ref[v][u]
                elif kind == 5 and isolated:
                    v = rng.choice(isolated)
                    g.remove_vertex(v)
                    del ref[v]
                else:
                    v = rng.choice([x for x in range(len(ref) + 3)
                                    if x not in ref])
                    g.add_vertex(v)
                    ref[v] = {}
                writes += 1
            del pool[:-8]
            for h, h_ref in pool:
                _check_against(h, h_ref)
    assert copies > 500 and writes > 1000


def _changed_by_value(g, base):
    """changed_vertices(g, base) by value alone, through the public API."""
    changed = {v for v in g.vertices
               if not base.has_vertex(v)
               or dict(g.incident(v)) != dict(base.incident(v))}
    return changed, base.vertices - g.vertices


def test_changed_vertices_matches_by_value_fuzz():
    """Over a pool of graphs linked by copy, restrict, splice_graph and
    edge and vertex ops, changed_vertices(a, b) equals the by-value
    answer for every ordered pair of graphs in the pool.  The pairs cover
    vertices whose dicts are one object, distinct objects with equal
    adjacency (a deleted edge put back, a fresh induced_subgraph), and
    unequal adjacency.

    Every graph a that copy() made is checked on its write log too: for
    each graph b equal by value to a's source as it was copied (a frozen
    copy of it, and any graph of the pool still equal to it),
    changed_vertices(a, b, a.log_since(source)) equals the by-value
    answer.  The writes include vertex deletes, so the log must name the
    vertices a lost as well as the dicts it wrote."""
    rng = random.Random(29)
    seen = {"shared": 0, "equal": 0, "differ": 0}
    logged = {"changed": 0, "gone": 0}
    for _ in range(30):
        pool = [random_multigraph(rng, rng.randint(0, 8), 0.3, 2)]
        made = []   # (a graph copy() made, its source, the source as copied)
        for _ in range(40):
            g = rng.choice(pool)
            kind = rng.choice((0, 1, 2, 3, 3, 4, 4, 5, 6))
            if kind == 0:
                pool.append(g.copy())
                made.append((pool[-1], g, induced_subgraph(g, g.vertices)))
            elif kind == 1:
                pool.append(g.restrict(_union_of_components(rng, g)))
            elif kind == 2:
                drop = _union_of_components(rng, g)
                kept = g.vertices - drop
                h = rng.choice(pool)
                part = h.restrict(set().union(*(
                    comp for comp in components(h) if kept.isdisjoint(comp))))
                pool.append(splice_graph(g, drop, part))
            elif kind == 5:
                pool.append(induced_subgraph(g, g.vertices))
            elif kind == 6:
                isolated = [v for v in g.vertex_list() if g.is_isolated(v)]
                if isolated:
                    g.remove_vertex(rng.choice(isolated))
                else:
                    g.add_vertex(max(g.vertices, default=-1) + 1)
            else:
                vs = g.vertex_list()
                absent = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                          if not g.has_edge(u, v)]
                if kind == 3 and absent:
                    g.add_edge(*rng.choice(absent), rng.randint(1, 2))
                elif g.distinct_edge_count():
                    g.remove_edge(*rng.choice(g.edge_keys()))
                else:
                    g.add_vertex(max(vs, default=-1) + 1)
            del pool[:-8]
            for a in pool:
                for b in pool:
                    assert changed_vertices(a, b) == _changed_by_value(a, b)
                    for v, nbrs in a._adj.items():
                        was = b._adj.get(v)
                        seen["shared" if was is nbrs else
                             "equal" if was == nbrs else "differ"] += 1
            made = [m for m in made if any(m[0] is a for a in pool)]
            for a, source, frozen in made:
                log = a.log_since(source)
                assert log is not None and a.log_since(frozen) is None
                for b in pool + [frozen]:
                    if b == frozen:
                        want = _changed_by_value(a, b)
                        assert changed_vertices(a, b, log) == want
                        logged["changed"] += bool(want[0])
                        logged["gone"] += bool(want[1])
    assert min(seen.values()) > 1000
    assert min(logged.values()) > 100


def test_restrict_copies_a_union_of_components():
    g = MultiGraph.from_edges(range(6), [(0, 1, 2), (1, 2), (3, 4, 3)])
    out = g.restrict({0, 1, 2, 5, 9})       # 9 is absent and skipped
    assert out == induced_subgraph(g, [0, 1, 2, 5])
    assert out.distinct_edge_count() == 2
    assert sorted(out.pairs()) == [(0, 1), (1, 2)]
    out.add_edge(0, 2, 1)
    assert not g.has_edge(0, 2) and g.distinct_edge_count() == 3


def test_composite_op_records_the_vertices_it_names():
    """A CompositeOp's names are the vertices its leaf ops name, nested
    CompositeOps included; named_vertices reads them, mixed with leaf ops,
    and names take no part in equality, hashing or repr."""
    inner = CompositeOp((InsertVertex(7), InsertEdge(7, 2, 3)))
    op = CompositeOp((DeleteEdge(1, 2), inner, DeleteVertex(9)))
    assert inner.names == {2, 7} and op.names == {1, 2, 7, 9}
    assert named_vertices([op, InsertEdge(4, 1)]) == [1, 2, 4, 7, 9]
    twin = CompositeOp((DeleteEdge(1, 2), inner, DeleteVertex(9)))
    assert twin == op and hash(twin) == hash(op)
    assert repr(op) == ("CompositeOp(ops=(DeleteEdge(u=1, v=2), "
                        "CompositeOp(ops=(InsertVertex(v=7), "
                        "InsertEdge(u=7, v=2, mult=3))), DeleteVertex(v=9)))")
