"""Cut objects and primitives: interception tests, the atomic-cut test,
bounded simple/non-simple cut enumeration, and realizable pairs.

Conventions: a cut is named by one vertex side V'.  The cut-set is the set of
distinct boundary edges; the cut *size* counts multiplicities.  A cut is
"simple" when its named side induces a connected subgraph, "atomic" when both
sides do.  A (t, c)-cut has size <= c and named side of <= t vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import RejectedOp
from .multigraph import EdgeKey, MultiGraph, VertexId, edge_key

VertexSet = FrozenSet[VertexId]
EdgeSet = FrozenSet[EdgeKey]


def boundary(g: MultiGraph, side: Iterable[VertexId]) -> EdgeSet:
    """Distinct edges with exactly one endpoint in `side`."""
    s = set(side)
    out = set()
    for v in s:
        if not g.has_vertex(v):
            raise RejectedOp("boundary", f"vertex {v} absent")
        for w in g.neighbors(v):
            if w not in s:
                out.add(edge_key(v, w))
    return frozenset(out)


def cut_size(g: MultiGraph, side: Iterable[VertexId]) -> int:
    """Multiplicity-weighted size of the cut named by `side`."""
    return sum(g.multiplicity(u, v) for u, v in boundary(g, side))


def _reachable(g: MultiGraph, start: VertexId, banned_edges: Set[EdgeKey],
               within: Optional[Set[VertexId]] = None) -> Set[VertexId]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.adjacent(u):
            if v in seen:
                continue
            if within is not None and v not in within:
                continue
            if edge_key(u, v) in banned_edges:
                continue
            seen.add(v)
            queue.append(v)
    return seen


def is_connected_subset(g: MultiGraph, side: Iterable[VertexId]) -> bool:
    s = set(side)
    if not s:
        return False
    start = min(s)
    return _reachable(g, start, set(), within=s) == s


def is_atomic_cut(g: MultiGraph, side: Iterable[VertexId],
                  universe: Optional[Set[VertexId]] = None) -> bool:
    """Test oracle: both sides connected; the complement is taken within
    `universe` (default: the connected component containing the side)."""
    s = set(side)
    if universe is None:
        universe = component_of(g, min(s))
    other = universe - s
    if not s or not other:
        return False
    return is_connected_subset(g, s) and is_connected_subset(g, other)


def component_of(g: MultiGraph, x: VertexId) -> Set[VertexId]:
    return _reachable(g, x, set())


def components(g: MultiGraph, banned_edges: Set[EdgeKey] = frozenset()
               ) -> List[Set[VertexId]]:
    seen: Set[VertexId] = set()
    out = []
    for v in g.vertex_list():
        if v in seen:
            continue
        comp = _reachable(g, v, banned_edges)
        seen |= comp
        out.append(comp)
    return out


def component_labels(g: MultiGraph) -> Dict[VertexId, VertexId]:
    """Each vertex mapped to the least vertex of its component."""
    label: Dict[VertexId, VertexId] = {}
    for v in g.vertex_list():
        if v not in label:
            label.update(dict.fromkeys(_reachable(g, v, set()), v))
    return label


@dataclass(frozen=True)
class Cut:
    """Test oracle: a cut named by one side, with cached cut-set and size."""
    side: VertexSet
    cutset: EdgeSet
    size: int

    @classmethod
    def of(cls, g: MultiGraph, side: Iterable[VertexId]) -> "Cut":
        s = frozenset(side)
        b = boundary(g, s)
        return cls(s, b, sum(g.multiplicity(u, v) for u, v in b))


# -- interception ----------------------------------------------------------

def intercepts(g: MultiGraph, f: Iterable[EdgeKey],
               cut) -> bool:
    """Test oracle: true iff no connected component of g minus f contains
    every edge of the cut's cut-set (an edge is contained when both its
    endpoints are).  `cut` may be a Cut or a bare iterable of edges."""
    cutset = cut.cutset if isinstance(cut, Cut) else cut
    cut_edges = [edge_key(u, v) for u, v in cutset]
    if not cut_edges:
        return False
    banned = {edge_key(u, v) for u, v in f}
    first = cut_edges[0]
    comp = _reachable(g, first[0], banned)
    for u, v in cut_edges:
        if u not in comp or v not in comp:
            return True
    return False


# -- atomic cuts -----------------------------------------------------------

def induces_atomic_cut(g: MultiGraph, e0: Iterable[EdgeKey]) -> bool:
    """True iff e0 is the cut-set of an atomic cut of some connected
    component: removing e0 from that component leaves exactly two pieces,
    and every edge of e0 joins them."""
    edges = {edge_key(u, v) for u, v in e0}
    if not edges or not all(g.has_vertex(x) for e in edges for x in e):
        return False
    # the pieces of g minus e0 met so far; a BFS stays in its component
    sides: List[Set[VertexId]] = []

    def side_of(x: VertexId) -> Set[VertexId]:
        for side in sides:
            if x in side:
                return side
        sides.append(_reachable(g, x, edges))
        return sides[-1]

    for u, v in edges:
        if side_of(u) is side_of(v) or len(sides) > 2:
            return False
    # every pair of e0 joins the same two pieces; they lie in one component
    # exactly when some pair is an edge of g
    return any(g.has_edge(u, v) for u, v in edges)


def induced_cut_side(g: MultiGraph, e0: Iterable[EdgeKey],
                     inner: Iterable[VertexId]) -> Set[VertexId]:
    """The side L of the cut induced by e0 that contains `inner`: the union
    of the pieces of g minus e0 that hold a vertex of `inner`.  `inner` lies
    in one component of g (every caller passes a connected side), and a BFS
    stays in its component, so L does too."""
    edges = {edge_key(u, v) for u, v in e0}
    side: Set[VertexId] = set()
    for v in inner:
        if v not in side:
            side |= _reachable(g, v, edges)
    return side


# -- bounded cut enumeration ----------------------------------------------

def enumerate_simple_cuts(g: MultiGraph, x: VertexId, c: int, t: int,
                          excluded: Iterable[VertexId] = ()
                          ) -> Set[VertexSet]:
    """All V' with x in V', |V'| <= t, G[V'] connected, cut size <= c,
    and V' disjoint from `excluded` (x itself may be listed there).

    No cut of size <= c crosses an edge of multiplicity above c, so every
    such V' is a union of heavy classes: the components of the edges heavier
    than c, such as the gadget's path edges and the query pendants.  The
    search therefore runs on the quotient by those edges.  A class is found
    by a BFS over heavy edges when the search first touches it; it weighs
    its vertex count towards t, and it is shut when it holds a vertex of
    `excluded`.  Include/exclude branching on the next undecided neighbor
    class of the grown side, with the remaining multiplicity budget tracked
    incrementally: every valid side is one leaf, and any branch whose
    committed boundary already exceeds c dies immediately.
    """
    if not g.has_vertex(x):
        raise RejectedOp("enumerate-simple-cuts", f"vertex {x} absent")
    banned = set(excluded) - {x}
    owner: Dict[VertexId, int] = {}
    members: List[List[VertexId]] = []
    adj: Dict[int, List[Tuple[int, int]]] = {}
    shut: Set[int] = set()

    def cls(v: VertexId) -> int:
        if v not in owner:
            k = len(members)
            owner[v] = k
            group = [v]
            for u in group:
                for w in g.neighbors(u):
                    if w not in owner and g.multiplicity(u, w) > c:
                        owner[w] = k
                        group.append(w)
            members.append(group)
            if not banned.isdisjoint(group):
                shut.add(k)
        return owner[v]

    def nbrs(k: int) -> List[Tuple[int, int]]:
        if k not in adj:
            mult: Dict[int, int] = {}
            for u in members[k]:
                for w in g.neighbors(u):
                    j = cls(w)
                    if j != k:
                        mult[j] = mult.get(j, 0) + g.multiplicity(u, w)
            adj[k] = list(mult.items())
        return adj[k]

    out: Set[VertexSet] = set()
    kx = cls(x)
    # every side holds x's whole class; the side {x} is kept for any t
    if kx in shut or len(members[kx]) > max(t, 1):
        return out
    side: Set[int] = {kx}
    queue: List[int] = [k for k, _ in nbrs(kx)]

    def rec(budget: int, i: int, weight: int) -> None:
        while i < len(queue) and (queue[i] in side or queue[i] in shut):
            i += 1
        if i == len(queue):
            out.add(frozenset(v for k in side for v in members[k]))
            return
        k = queue[i]
        cost_in = sum(m for j, m in nbrs(k) if j in shut)
        if weight + len(members[k]) <= t and budget >= cost_in:
            side.add(k)
            mark = len(queue)
            queue.extend(j for j, _ in nbrs(k)
                         if j not in side and j not in shut)
            rec(budget - cost_in, i + 1, weight + len(members[k]))
            del queue[mark:]
            side.remove(k)
        cost_out = sum(m for j, m in nbrs(k) if j in side)
        if budget >= cost_out:
            shut.add(k)
            rec(budget - cost_out, i + 1, weight)
            shut.remove(k)

    start = c - sum(m for k, m in nbrs(kx) if k in shut)
    if start >= 0:
        rec(start, 0, len(members[kx]))
    return out


def enumerate_anchored_cuts(g: MultiGraph, anchors: Iterable[VertexId], c: int,
                            t: int) -> List[Tuple[VertexId, VertexSet]]:
    """Every side meeting `anchors` exactly once, tagged with the smallest
    anchor it contains and ordered by (anchor, side).  Matches the union of
    per-anchor enumerations processed with first-hit deduplication."""
    out: List[Tuple[VertexId, VertexSet]] = []
    done: List[VertexId] = []
    for x in sorted(set(anchors)):
        sides = enumerate_simple_cuts(g, x, c, t, excluded=done)
        out.extend((x, side) for side in
                   sorted(sides, key=lambda v: tuple(sorted(v))))
        done.append(x)
    return out


def enumerate_cuts(g: MultiGraph, terms: Iterable[VertexId],
                   t_prime: Iterable[VertexId], c: int, t: int
                   ) -> Set[VertexSet]:
    """All (T', terms \\ T', t, c)-cut sides V' of g such that every
    connected component of G[V'] contains a vertex of T'.  `terms` are the
    terminals of DS1 and DS2 together.  Empty if |T'| > t."""
    tp = frozenset(t_prime)
    if len(tp) > t:
        return set()
    terms = frozenset(terms)
    if not tp <= terms:
        raise RejectedOp("enumerate-cuts", "T' not within the terminal sets")
    universe: Set[VertexSet] = \
        {side for _, side in enumerate_anchored_cuts(g, tp, c, t)}
    # keep only pieces whose terminal trace stays within T'
    pieces = sorted((v for v in universe if (v & terms) <= tp),
                    key=lambda s: tuple(sorted(s)))
    out: Set[VertexSet] = set()

    def extend(start: int, union: Set[VertexId], depth: int) -> None:
        if union and (frozenset(union) & terms) == tp:
            b = boundary(g, union)
            if sum(g.multiplicity(u, v) for u, v in b) <= c:
                out.add(frozenset(union))
        if depth == c:
            return
        for idx in range(start, len(pieces)):
            piece = pieces[idx]
            if union & piece:
                continue
            if len(union) + len(piece) > t:
                continue
            extend(idx + 1, union | piece, depth + 1)

    extend(0, set(), 0)
    return out


# -- realizable pairs -------------------------------------------------------

@dataclass(frozen=True)
class RealizablePair:
    """(E', V'): V' names a simple (t, c)-cut and E' is a subset of its
    boundary inducing an atomic cut."""
    edges: EdgeSet
    side: VertexSet

    @classmethod
    def of(cls, edges: Iterable[EdgeKey], side: Iterable[VertexId]
           ) -> "RealizablePair":
        return cls(frozenset(edge_key(u, v) for u, v in edges),
                   frozenset(side))
