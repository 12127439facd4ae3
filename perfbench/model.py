"""The benchmark's own copy of the tracked graph and its connectivity check.

The answer a query is checked against comes from networkx's max-flow based
local edge connectivity on this copy, never from `dynacut`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set, Tuple

import networkx as nx
from networkx.algorithms.connectivity import local_edge_connectivity

Edge = Tuple[int, int]


def c_connected(g: nx.Graph, u: int, v: int, c: int) -> bool:
    """True iff u and v are joined by c edge-disjoint paths in g."""
    return u == v or local_edge_connectivity(g, u, v, cutoff=c) >= c


class Model:
    """Simple graph the op stream builds, kept apart from the engine."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Edge]):
        self.g = nx.Graph()
        self.g.add_nodes_from(vertices)
        self.g.add_edges_from(edges)

    def apply(self, kind: str, u: int, v: int) -> None:
        if kind == "insert":
            if self.g.has_edge(u, v):
                raise ValueError(f"insert of present edge ({u},{v})")
            self.g.add_edge(u, v)
        else:
            self.g.remove_edge(u, v)

    def vertices(self) -> Set[int]:
        return set(self.g.nodes)

    def edges(self) -> FrozenSet[Edge]:
        return frozenset((u, v) if u < v else (v, u) for u, v in self.g.edges)

    def c_connected(self, u: int, v: int, c: int) -> bool:
        return c_connected(self.g, u, v, c)
