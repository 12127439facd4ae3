"""Seeded, deterministic workloads for the engine benchmark.

A workload is an initial simple graph made of disjoint communities plus an
endless op stream cut into rounds.  Every round has the same make-up: a fixed
number of delete/insert pairs, each inside one community (so the edge count
returns to its start after every pair), and a fixed number of queries whose
endpoints lie in one community.  The generator keeps its own copy of the
graph, so every prefix of the stream is valid: a delete names a present edge,
an insert an absent one, a query two distinct vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Set, Tuple

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    c: int
    communities: int
    size: int                  # vertices per community
    edges: int                 # edges per community
    pattern: str               # one round: "D" delete, "I" insert, "Q" query

    @property
    def updates_per_round(self) -> int:
        return self.pattern.count("D") + self.pattern.count("I")

    @property
    def queries_per_round(self) -> int:
        return self.pattern.count("Q")


# Each "DI" is a delete and an insert in the same community.  Why each
# workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # every update rebuilds the whole structure; a query's cut work stays
    # in one small community
    Workload("churn-communities", 2, 12, 8, 10, "DIDIDIQQ"),
    # queries take over 90% of engine time, most of it enumerating cuts
    Workload("query-dense", 2, 1, 20, 40, "DIDIQQQ"),
)}


class OpStream:
    """Initial graph and op stream of one workload for one seed."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self._rng = random.Random(f"{wl.name}/{seed}")
        self._members: List[List[int]] = [
            list(range(k * wl.size, (k + 1) * wl.size))
            for k in range(wl.communities)]
        self._present: List[Set[Edge]] = []
        for members in self._members:
            pairs = list(combinations(members, 2))
            self._present.append(set(self._rng.sample(pairs, wl.edges)))
        self.initial_vertices: List[int] = [v for m in self._members
                                            for v in m]
        self.initial_edges: List[Edge] = sorted(
            e for edges in self._present for e in edges)

    def _absent(self, k: int, banned: Edge) -> List[Edge]:
        present = self._present[k]
        return [e for e in combinations(self._members[k], 2)
                if e not in present and e != banned]

    def rounds(self) -> Iterator[List[Tuple[str, int, int]]]:
        """Endless rounds of ("delete"|"insert"|"query", u, v) ops."""
        rng = self._rng
        while True:
            out: List[Tuple[str, int, int]] = []
            k = 0
            last: Edge = (-1, -1)
            for kind in self.wl.pattern:
                if kind == "D":
                    k = rng.randrange(self.wl.communities)
                    last = rng.choice(sorted(self._present[k]))
                    self._present[k].discard(last)
                    out.append(("delete",) + last)
                elif kind == "I":
                    e = rng.choice(self._absent(k, last))
                    self._present[k].add(e)
                    out.append(("insert",) + e)
                else:
                    q = rng.randrange(self.wl.communities)
                    u, v = rng.sample(self._members[q], 2)
                    out.append(("query", u, v))
            yield out
