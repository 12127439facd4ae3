"""Conductance, expander decomposition, pruning, and the decremental
single-expander routine.

The decomposition and pruning algorithms from the literature (Saranurak and
Wang, SODA 2019) are black boxes here; what matters downstream is their
output contract (per-cluster conductance, intercluster edge fraction,
pruned-volume bounds).

There is one decomposition, and every cluster it returns is certified to
have conductance >= phi: by the 2/vol bound, which every connected cluster
of volume vol meets, or by exact conductance when the cluster has at most
EXACT_LIMIT vertices.  A cluster that fails the bound and is larger than
that is refused with RejectedOp("expander-decomposition", ...), never
accepted or split on an uncertified cut.  A failed cluster is split on its
exact sparsest cut, the one the search that failed it found.

When phi * m <= 1 for a graph of m distinct edges, the bound certifies
every cluster of it, so its decomposition is its components with no
intercluster edge (certified_by_size), and callers skip the call.  The
engine's flat schedule is always there, so the engine runs no
decomposition: only desk schedules with a larger phi reach it, such as the
two-barbell schedule of the connectivity tests, and the exhaustive searches
run there.  Pruning around a nonempty deletion set runs in its own tests
only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .cutprimitives import boundary, components
from .errors import RejectedOp
from .multigraph import EdgeKey, MultiGraph, VertexId, edge_key, \
    induced_subgraph

EXACT_LIMIT = 18
CONDUCTANCE_LIMIT = 20


def volume(g: MultiGraph, verts: Iterable[VertexId]) -> int:
    """Sum of distinct-edge degrees."""
    return sum(g.degree(v) for v in verts)


def conductance(g: MultiGraph) -> Fraction:
    """Exact conductance of a connected graph by exhaustive search, on
    distinct edges.  Only pruning calls it, around a nonempty deletion set,
    which the engine does not reach; the decomposition reads the sparsest
    cut itself (_failed_side)."""
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
    volume on both sides.  Not reached on the engine's flat schedule; tested
    on desk schedules with a larger phi, such as the two-barbell one."""
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


def certified_by_size(g: MultiGraph, phi: Fraction) -> bool:
    """True when phi * m(g) <= 1, for m(g) the distinct edge count.  Then
    the expander decomposition at phi of g, or of any subgraph H of g,
    is the components of H with no intercluster edge, so a caller can take
    that without running it.

    Proof.  Every cluster the decomposition examines is a component of H
    or of an induced subgraph of H, so a connected set; singletons are not
    examined, and a connected set of two vertices or more has volume vol
    with 2 <= vol <= 2 m(H) <= 2 m(g), counted on distinct edges as
    _failed_side counts it.  Then phi <= 1/m(g) <= 2/vol, so the cluster
    passes the 2/vol test and is kept whole: the first clusters, the
    components of H, are the result, and no edge of H runs between two of
    them."""
    return Fraction(phi) * g.distinct_edge_count() <= 1


@dataclass
class Decomposition:
    partition: List[FrozenSet[VertexId]]
    phi_certified: Fraction
    intercluster: Set[EdgeKey]
    epsilon: Fraction = Fraction(0)  # reported intercluster edge fraction


def _failed_side(g: MultiGraph, cluster: FrozenSet[VertexId],
                 phi: Fraction) -> Optional[FrozenSet[VertexId]]:
    """None when a cluster of two vertices or more, which comes from a
    components call and so is connected, has conductance >= phi; otherwise
    the side of its sparsest cut.  Refuses a cluster that fails the 2/vol
    bound and has more than EXACT_LIMIT vertices, since nothing cheaper
    certifies it."""
    # the volume of the cluster's induced subgraph, read off g
    vol = sum(1 for v in cluster for w in g.adjacent(v) if w in cluster)
    if phi <= Fraction(2, vol):
        # any cut of a connected graph has >= 1 edge against a side of
        # volume <= vol/2, so conductance >= 2/vol without enumeration
        return None
    if len(cluster) > EXACT_LIMIT:
        raise RejectedOp("expander-decomposition",
                         f"cluster of {len(cluster)} vertices fails the "
                         f"2/vol bound and is too large for an exact check")
    # every side of a connected graph has volume, so a cut is found
    best, side = _sparsest_cut(induced_subgraph(g, cluster))
    return None if best >= phi else side


def expander_decomposition(g: MultiGraph, phi: Fraction) -> Decomposition:
    """Partition every component into clusters of conductance >= phi,
    splitting each cluster that fails on its exact sparsest cut."""
    phi = Fraction(phi)
    work: List[FrozenSet[VertexId]] = [frozenset(c) for c in components(g)]
    done: List[FrozenSet[VertexId]] = []
    while work:
        cluster = work.pop()
        side = _failed_side(g, cluster, phi) if len(cluster) > 1 else None
        if side is None:
            done.append(cluster)
            continue
        for part in (side, cluster - side):
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
    return {e for e in g.pairs() if owner[e[0]] != owner[e[1]]}


def pruning(g: MultiGraph, d_edges: Iterable[EdgeKey], phi: Fraction
            ) -> Set[VertexId]:
    """A vertex set P around the deleted edges such that every component of
    (g minus d_edges)[V - P] has conductance >= phi/6; vol(P) <= 8|D|/phi,
    overflowing to the whole vertex set.

    On the engine's flat schedule the decremental update calls it with an
    empty D only, which returns at once, and no desk schedule of the tests
    reaches a nonempty D either: that is tested on direct calls against
    this contract."""
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
    part; O(|D|) edges when G was a phi-expander.

    When the pruned part is all of G, the re-decomposition reads a plain
    copy of G: the decomposition reads only sorted vertex lists and sets,
    so it gives what it gives on induced_subgraph(G, V(G)).

    The re-decomposition runs on a subgraph of G, so it is skipped, before
    that subgraph is built, when certified_by_size(G, sub_phi) shows it
    finds no intercluster edge.  The engine's flat schedule meets this in
    every call."""
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
    sub_phi = phi / 64  # desk surrogate for the subpolynomial loss
    if certified_by_size(g, sub_phi):
        return r
    h = g.copy() if len(p) == g.vertex_count() else induced_subgraph(g, p)
    for u, v in d_set:
        if h.has_edge(u, v):
            h.remove_edge(u, v)
    if h.vertex_count():
        deco = expander_decomposition(h, sub_phi)
        r |= deco.intercluster
    return r
