"""Conductance, expander decomposition, pruning, and the decremental
single-expander routine.

The decomposition and pruning algorithms from the literature are black boxes
here; what matters downstream is their output contract (per-cluster
conductance, intercluster edge fraction, pruned-volume bounds).  Two
backends: "exact-small" splits on exhaustively computed sparsest cuts and is
valid up to ~18-vertex components; "sweep" uses a spectral sweep cut and
verifies each produced cluster, re-splitting on failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .cutprimitives import boundary, components
from .errors import RejectedOp
from .multigraph import EdgeKey, MultiGraph, VertexId, edge_key, \
    induced_subgraph, simple_view

EXACT_LIMIT = 18
CONDUCTANCE_LIMIT = 20


def volume(g: MultiGraph, verts: Iterable[VertexId]) -> int:
    """Sum of distinct-edge degrees."""
    return sum(g.degree(v) for v in verts)


def conductance(g: MultiGraph) -> Fraction:
    """Exact conductance of a connected simple graph by exhaustive search."""
    n = g.vertex_count()
    if n < 2:
        raise RejectedOp("conductance", "need at least 2 vertices")
    if n > CONDUCTANCE_LIMIT:
        raise RejectedOp("conductance", f"too large for exhaustive search ({n})")
    if len(components(g)) > 1:
        raise RejectedOp("conductance", "graph is disconnected")
    best, _ = _sparsest_cut(g)
    if best is None:
        raise RejectedOp("conductance", "no nontrivial cut")
    return best


def _sparsest_cut(g: MultiGraph
                  ) -> Tuple[Optional[Fraction], FrozenSet[VertexId]]:
    """Exhaustive conductance search: the least cut/volume ratio and its
    side (lowest bitmask on ties); (None, empty side) when no side has
    volume on both sides."""
    n = g.vertex_count()
    verts = g.vertex_list()
    index = {v: i for i, v in enumerate(verts)}
    adj_mask = [0] * n
    deg = [0] * n
    for v in verts:
        i = index[v]
        for w in g.neighbors(v):
            adj_mask[i] |= 1 << index[w]
            deg[i] += 1
    total_vol = sum(deg)
    best = None
    best_mask = 0
    # fix vertex 0 inside S to halve the search
    for rest in range(1 << (n - 1)):
        mask = (rest << 1) | 1
        if mask == (1 << n) - 1:
            continue
        vol_s = 0
        cut = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            vol_s += deg[i]
            cut += bin(adj_mask[i] & ~mask).count("1")
        denom = min(vol_s, total_vol - vol_s)
        if denom == 0:
            continue
        val = Fraction(cut, denom)
        if best is None or val < best:
            best = val
            best_mask = mask
    return best, frozenset(verts[i] for i in range(n) if best_mask >> i & 1)


@dataclass
class Decomposition:
    partition: List[FrozenSet[VertexId]]
    phi_certified: Fraction
    intercluster: Set[EdgeKey]
    epsilon: Fraction = Fraction(0)  # reported intercluster edge fraction


def _sweep_split(g: MultiGraph) -> FrozenSet[VertexId]:
    """Best sweep cut along the Fiedler vector of the normalized Laplacian."""
    import numpy as np

    verts = g.vertex_list()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n))
    for (u, v), _ in g.edge_items():
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    deg = a.sum(axis=1)
    d_inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    lap = np.eye(n) - (a * d_inv).T * d_inv
    vals, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]
    order = sorted(range(n), key=lambda i: (fiedler[i], verts[i]))
    total_vol = int(deg.sum())
    best_val = None
    best_k = 1
    vol_s = 0
    in_s = [False] * n
    cut = 0
    for k in range(1, n):
        i = order[k - 1]
        in_s[i] = True
        vol_s += int(deg[i])
        for j in range(n):
            if a[i, j]:
                cut += -1 if in_s[j] else 1
        denom = min(vol_s, total_vol - vol_s)
        if denom == 0:
            continue
        val = Fraction(cut, denom)
        if best_val is None or val < best_val:
            best_val = val
            best_k = k
    return frozenset(verts[order[i]] for i in range(best_k))


def _cluster_ok(g: MultiGraph, cluster: FrozenSet[VertexId],
                phi: Fraction, backend: str) -> bool:
    """Whether a cluster of two vertices or more, which comes from a
    components call and so is connected, has conductance >= phi."""
    # the volume of the cluster's induced subgraph, read off g
    vol = sum(1 for v in cluster for w in g.adjacent(v) if w in cluster)
    if phi <= Fraction(2, vol):
        # any cut of a connected graph has >= 1 edge against a side of
        # volume <= vol/2, so conductance >= 2/vol without enumeration
        return True
    sub = induced_subgraph(g, cluster)
    if len(cluster) <= EXACT_LIMIT or backend == "exact-small":
        return conductance(sub) >= phi
    # large sweep cluster: accept when its own best sweep cut is no better
    side = _sweep_split(sub)
    b = len(boundary(sub, side))
    denom = min(volume(sub, side), volume(sub, set(cluster) - side))
    return denom == 0 or Fraction(b, denom) >= phi


DEFAULT_BACKEND = "auto"


def set_default_backend(name: str) -> None:
    """What backend="auto" resolves to; the harness CLI sets this."""
    global DEFAULT_BACKEND
    if name not in ("auto", "exact-small", "sweep"):
        raise RejectedOp("expander-decomposition", f"unknown backend {name!r}")
    DEFAULT_BACKEND = name


def expander_decomposition(g: MultiGraph, phi: Fraction,
                           backend: str = "auto") -> Decomposition:
    """Partition every component into clusters of conductance >= phi."""
    if backend == "auto":
        backend = DEFAULT_BACKEND
    phi = Fraction(phi)
    work: List[FrozenSet[VertexId]] = [frozenset(c) for c in components(g)]
    done: List[FrozenSet[VertexId]] = []
    while work:
        cluster = work.pop()
        if backend == "exact-small" and len(cluster) > EXACT_LIMIT:
            raise RejectedOp("expander-decomposition",
                             f"component too large for exact backend "
                             f"({len(cluster)})")
        if len(cluster) <= 1 or _cluster_ok(g, cluster, phi, backend):
            done.append(cluster)
            continue
        sub = induced_subgraph(g, cluster)
        use_exact = backend == "exact-small" or (
            backend == "auto" and len(cluster) <= EXACT_LIMIT)
        side = _sparsest_cut(sub)[1] if use_exact else _sweep_split(sub)
        other = cluster - side
        for part in (side, other):
            work.extend(frozenset(c) for c in
                        components(induced_subgraph(g, part)))
    done.sort(key=lambda s: tuple(sorted(s)))
    inter = _intercluster(g, done)
    m = g.distinct_edge_count()
    eps = Fraction(len(inter), m) if m else Fraction(0)
    return Decomposition(done, phi, inter, eps)


def _intercluster(g: MultiGraph, partition: List[FrozenSet[VertexId]]
                  ) -> Set[EdgeKey]:
    owner = {}
    for i, part in enumerate(partition):
        for v in part:
            owner[v] = i
    return {e for e in g.edge_keys() if owner[e[0]] != owner[e[1]]}


def pruning(g: MultiGraph, d_edges: Iterable[EdgeKey], phi: Fraction
            ) -> Set[VertexId]:
    """A vertex set P around the deleted edges such that every component of
    (g minus d_edges)[V - P] has conductance >= phi/6; vol(P) <= 8|D|/phi,
    overflowing to the whole vertex set."""
    phi = Fraction(phi)
    d_set = {edge_key(u, v) for u, v in d_edges}
    k = len(d_set)
    if k == 0:
        return set()
    m = g.distinct_edge_count()
    if Fraction(k) > Fraction(m) * phi / 10:
        raise RejectedOp("pruning", f"|D|={k} exceeds phi*m/10")
    h = g.copy()
    for u, v in d_set:
        if h.has_edge(u, v):
            h.remove_edge(u, v)

    def remainder_ok(p: Set[VertexId]) -> bool:
        rest = set(g.vertex_list()) - p
        if not rest:
            return True
        sub = induced_subgraph(h, rest)
        for comp in components(sub):
            if len(comp) < 2:
                continue
            if len(comp) > CONDUCTANCE_LIMIT:
                return False
            if conductance(induced_subgraph(sub, comp)) < phi / 6:
                return False
        return True

    # grow P along a BFS order seeded at the deleted edges' endpoints
    seeds = sorted({v for e in d_set for v in e})
    order: List[VertexId] = []
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    for v in g.vertex_list():
        if v not in seen:
            order.append(v)
    cap = Fraction(8 * k) / phi
    p: Set[VertexId] = set()
    if remainder_ok(p):
        return p
    for v in order:
        p.add(v)
        if volume(g, p) > cap:
            return set(g.vertex_list())
        if remainder_ok(p):
            return p
    return set(g.vertex_list())


def decremental_single_expander(g: MultiGraph, phi: Fraction,
                                d_edges: Iterable[EdgeKey]) -> Set[EdgeKey]:
    """Intercluster edges of an expander decomposition of G minus d_edges,
    built by pruning around the deletions and re-decomposing only the pruned
    part; O(|D|) edges when G was a phi-expander."""
    g = simple_view(g)
    d_set = {edge_key(u, v) for u, v in d_edges}
    phi = Fraction(phi)
    m = g.distinct_edge_count()
    r: Set[EdgeKey] = set()
    p: Set[VertexId] = set(g.vertex_list())
    if Fraction(len(d_set)) <= Fraction(m) * phi / 10:
        try:
            p = pruning(g, d_set, phi)
            r = set(boundary(g, p)) - d_set if p else set()
        except RejectedOp:
            p = set(g.vertex_list())
    h = induced_subgraph(g, p)
    for u, v in d_set:
        if h.has_edge(u, v):
            h.remove_edge(u, v)
    if h.vertex_count():
        sub_phi = phi / 64  # desk surrogate for the subpolynomial loss
        deco = expander_decomposition(h, sub_phi)
        r |= deco.intercluster
    return r
