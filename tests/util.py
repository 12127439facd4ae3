"""Shared helpers for randomized tests."""

import random

from dynacut.cutpartition import _remove_edges, _sparsifier_graph
from dynacut.dynforest import GraphDS
from dynacut.multigraph import MultiGraph
from dynacut.repair import _ends


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
