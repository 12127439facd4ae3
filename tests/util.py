"""Shared helpers for randomized tests."""

import random

from dynacut.connectivity import _ATTACH_A, _ATTACH_B, offline_oracle
from dynacut.cutpartition import (LayerParams, _remove_edges,
                                  _sparsifier_graph, build_sparsifier,
                                  cut_partition_update)
from dynacut.dynforest import GraphDS
from dynacut.multigraph import InsertEdge, InsertVertex, MultiGraph, apply_seq
from dynacut.repair import _ends


def default_params(t: int, c: int, strict: bool = False) -> LayerParams:
    """A conforming chain with q_i = 3 t_i (the slack initial_ia needs)."""
    n = c * c + 2 * c if strict else c
    factor = (n + 2) ** 2 if strict else c + 1
    pairs = []
    t_i = t
    for _ in range(n):
        q_i = 3 * t_i
        pairs.append((t_i, q_i))
        t_i = q_i * factor
    return LayerParams(t, c, tuple(pairs), strict)


def random_simple_graph(rng: random.Random, n: int, p: float) -> MultiGraph:
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, 1)
    return g


def random_multigraph(rng: random.Random, n: int, p: float,
                      max_mult: int = 3) -> MultiGraph:
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, rng.randint(1, max_mult))
    return g


def random_connected_graph(rng: random.Random, n: int, extra: int) -> MultiGraph:
    """Random spanning tree plus `extra` random non-tree edges."""
    g = MultiGraph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_vertex(v)
        g.add_edge(v, rng.randrange(v), 1)
    added = 0
    attempts = 0
    while added < extra and attempts < 20 * (extra + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, 1)
            added += 1
    return g


def barbell() -> MultiGraph:
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge (2,3)."""
    return MultiGraph.from_edges(
        range(6),
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def two_barbells() -> MultiGraph:
    """barbell() on 0..5 and a second copy of it on 10..15."""
    g = barbell()
    for v in range(10, 16):
        g.add_vertex(v)
    for (u, v), _ in barbell().edge_items():
        g.add_edge(u + 10, v + 10, 1)
    return g


def path_graph(n: int) -> MultiGraph:
    return MultiGraph.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> MultiGraph:
    return MultiGraph.from_edges(
        range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.from_edges(
        range(n), [(u, v) for u in range(n) for v in range(u + 1, n)])


def partition_sparsifier(g: MultiGraph, partition, gamma: int = 1
                         ) -> MultiGraph:
    """What build_sparsifier makes of a partition into connected classes:
    the contraction of GraphDS(g - B, ends(B)) for the intercluster edges B,
    plus B verbatim."""
    owner = {v: i for i, part in enumerate(partition) for v in part}
    b = [e for e in g.edge_keys() if owner[e[0]] != owner[e[1]]]
    return _sparsifier_graph(g, GraphDS(_remove_edges(g, b), _ends(b)), gamma)


def whole_graph_query(e, u, w):
    """Test oracle: engine_query as it ran before it restricted the levels
    to the anchors' component.  It pushes the pendant sequence through a
    clone of every whole level and builds H on the whole top sparsifier.
    Returns the answer and the query_stats entry it would record, and
    leaves the engine untouched."""
    mds = e.current
    au, aw = e.reduction.anchor(u), e.reduction.anchor(w)
    seq = [InsertVertex(_ATTACH_A), InsertVertex(_ATTACH_B),
           InsertEdge(au, _ATTACH_A, e.c + 1),
           InsertEdge(aw, _ATTACH_B, e.c + 1)]
    phi = e.schedule.phi_at(mds.round + 1)
    expansion = [len(seq)]
    top = build_sparsifier(mds.levels[-1])
    for ods in mds.levels:
        _, seq = cut_partition_update(ods.clone(), seq, phi)
        expansion.append(len(seq))
    h = apply_seq(top, seq)
    stats = {"levels": len(mds.levels), "h_vertices": h.vertex_count(),
             "h_edges": h.distinct_edge_count(),
             "expansion": tuple(expansion)}
    return offline_oracle(h, au, aw, e.c), stats
