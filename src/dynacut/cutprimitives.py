"""Cut objects and primitives: interception tests, the atomic-cut test,
bounded simple/non-simple cut enumeration, realizable pairs, and the capped
max-flow that both the final answer and type one's repair-set certificate
run.

Conventions: a cut is named by one vertex side V'.  The cut-set is the set of
distinct boundary edges; the cut *size* counts multiplicities.  A cut is
"simple" when its named side induces a connected subgraph, "atomic" when both
sides do.  A (t, c)-cut has size <= c and named side of <= t vertices.

A CutSearch holds what repeated searches on one unchanging graph share: the
heavy-class quotient per threshold, each simple-cut search result, the
cut size of each side a search found, the pieces of the graph minus each
edge set, and each side's boundary and the subsets of it that induce an
atomic cut.
repair_set builds one for the length of one call; the enumeration and
atomic-cut functions take it as their first argument and read g off it, so
each has one code path.

One search serves every narrower ask.  The sides of the simple-cut search
(x, c, t, E) are the connected sides holding x with cut size <= c, at most
max(t, 1) vertices and no vertex of E; that set does not depend on the
quotient the search walks.  So an earlier search of x at (c0, t0, E0) with
c0 >= c, t0 >= t and E0 a subset of E holds every side of the narrower
one, and filtering it by cut size, vertex count and E gives them exactly.
A search records each side's cut size as it finds it, so the filter walks
no boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Set, Tuple)

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
        for w in g.adjacent(v):
            if w not in s:
                out.add(edge_key(v, w))
    return frozenset(out)


def cut_size(g: MultiGraph, side: Iterable[VertexId]) -> int:
    """Test oracle: multiplicity-weighted size of the cut named by `side`
    (the engine reads CutSearch.cut_size)."""
    return sum(g.multiplicity(u, v) for u, v in boundary(g, side))


def _reachable(g: MultiGraph, start: VertexId, banned_edges: Set[EdgeKey],
               within: Optional[Set[VertexId]] = None) -> Set[VertexId]:
    skip: Dict[VertexId, Set[VertexId]] = {}
    for u, v in banned_edges:
        skip.setdefault(u, set()).add(v)
        skip.setdefault(v, set()).add(u)
    seen = {start}
    queue = [start]
    for u in queue:
        banned = skip.get(u, ())
        for v in g.adjacent(u):
            if v in seen or v in banned:
                continue
            if within is not None and v not in within:
                continue
            seen.add(v)
            queue.append(v)
    return seen


def is_connected_subset(g: MultiGraph, side: Iterable[VertexId]) -> bool:
    """Test oracle: `side` is nonempty and induces a connected subgraph."""
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
    """Test oracle: each vertex mapped to the least vertex of its component
    (the engine asks CutSearch.piece, and repair labels DS3 lazily)."""
    label: Dict[VertexId, VertexId] = {}
    for v in g.vertex_list():
        if v not in label:
            label.update(dict.fromkeys(component_of(g, v), v))
    return label


def touched_components(g: MultiGraph, xs: Iterable[VertexId]
                       ) -> List[Tuple[Set[VertexId], Set[VertexId]]]:
    """Each component of g that holds a vertex of xs, which must all be
    vertices of g, with the vertices of xs it holds, in the order of the
    components' least vertices.  Only those components are searched."""
    left = set(xs)
    out = []
    while left:
        comp = component_of(g, min(left))
        out.append((comp, left & comp))
        left -= comp
    out.sort(key=lambda item: min(item[0]))
    return out


def _capped_maxflow(g: MultiGraph, x: VertexId, y: VertexId, cap: int) -> int:
    """min(cap, the x-y edge connectivity of g), multiplicities counted: a
    max x-y flow with per-edge capacities min(multiplicity, cap), itself
    capped at cap, in at most cap augmentations.

    Only the edges that carry flow are stored, as the net flow across each
    in both directions; every other residual capacity is read off g's
    adjacency in no fixed order.  The value does not depend on the order
    the augmenting paths are found in."""
    flow: Dict[Tuple[VertexId, VertexId], int] = {}
    total = 0
    while total < cap:
        # parent[v] = (u, residual capacity of u -> v)
        parent: Dict[VertexId, Tuple[VertexId, int]] = {x: (x, cap)}
        queue = [x]
        for u in queue:
            for v, m in g.incident(u):
                if v not in parent:
                    left = min(m, cap) - flow.get((u, v), 0)
                    if left > 0:
                        parent[v] = (u, left)
                        queue.append(v)
            if y in parent:
                break
        else:
            break
        push = cap - total
        v = y
        while v != x:
            v, left = parent[v]
            push = min(push, left)
        v = y
        while v != x:
            u = parent[v][0]
            flow[u, v] = flow.get((u, v), 0) + push
            flow[v, u] = -flow[u, v]
            v = u
        total += push
    return total


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


# -- one graph's shared cut searches ---------------------------------------

class _Quotient(NamedTuple):
    """g modulo its edges heavier than c: the class of each vertex, the
    vertices of each class, and each class's neighbour classes, each with
    the multiplicity of the edges to it."""
    owner: Dict[VertexId, int]
    members: List[List[VertexId]]
    adj: List[List[Tuple[int, int]]]


def _heavy_quotient(g: MultiGraph, c: int) -> _Quotient:
    owner: Dict[VertexId, int] = {}
    members: List[List[VertexId]] = []
    for v in g.vertex_list():
        if v in owner:
            continue
        owner[v] = len(members)
        group = [v]
        for u in group:
            for w in g.adjacent(u):
                if w not in owner and g.multiplicity(u, w) > c:
                    owner[w] = owner[v]
                    group.append(w)
        members.append(group)
    adj: List[List[Tuple[int, int]]] = []
    for k, group in enumerate(members):
        mult: Dict[int, int] = {}
        for u in group:
            for w in g.adjacent(u):
                j = owner[w]
                if j != k:
                    mult[j] = mult.get(j, 0) + g.multiplicity(u, w)
        adj.append(list(mult.items()))
    return _Quotient(owner, members, adj)


class CutSearch:
    """What the cut searches on one graph g share, each built once: the
    heavy-class quotient per threshold, the result of each simple-cut
    search per (x, c, min(t, |V(g)|), excluded), the cut size of each side,
    the pieces of g minus each edge set e0, walked on a quotient, and the
    boundary of each side with the subsets of it that induce an atomic cut.
    A search that an earlier one covers is filtered from it, with the cut
    sizes the earlier one recorded (see the module docstring).

    g must not change while the object is in use.  repair_set builds one
    per call, passes it to every helper, and drops it when it returns, so
    nothing is kept between calls or shared between engines;
    update_partition builds one for its refinement check.  Every function
    below takes one in place of g and reads g off it.  Every result it
    keeps is immutable, since each caller that asks gets the same one."""

    def __init__(self, g: MultiGraph):
        self.g = g
        self._quotients: Dict[int, _Quotient] = {}
        self._simple: Dict[Tuple[VertexId, int, int, VertexSet],
                           FrozenSet[VertexSet]] = {}
        self._pieces: Dict[EdgeSet, List[VertexSet]] = {}
        self._boundary: Dict[VertexSet, EdgeSet] = {}
        self._sizes: Dict[VertexSet, int] = {}
        self._atomic: Dict[VertexSet, Tuple[EdgeSet, ...]] = {}

    def quotient(self, c: int) -> _Quotient:
        if c not in self._quotients:
            self._quotients[c] = _heavy_quotient(self.g, c)
        return self._quotients[c]

    def simple_cuts(self, x: VertexId, c: int, t: int,
                    excluded: Iterable[VertexId] = ()) -> FrozenSet[VertexSet]:
        """enumerate_simple_cuts(self, x, c, t, excluded), the same object
        for a repeated ask.  Every budget t >= |V(g)| gives the sides of
        t = |V(g)|, so all such budgets share one key.  An earlier result
        for x at (c0 >= c, t0 >= t, a subset of excluded) is filtered; only
        an ask that none covers runs a search."""
        t = min(t, self.g.vertex_count())
        shut = frozenset(excluded) - {x}
        key = (x, c, t, shut)
        if key in self._simple:
            return self._simple[key]
        for (x0, c0, t0, shut0), sides in self._simple.items():
            if x0 == x and c0 >= c and t0 >= t and shut0 <= shut:
                found = frozenset(
                    v for v in sides if self._sizes[v] <= c
                    and len(v) <= max(t, 1) and v.isdisjoint(shut))
                break
        else:
            found = frozenset(enumerate_simple_cuts(self, x, c, t, shut))
        self._simple[key] = found
        return found

    def piece(self, e0: EdgeSet, x: VertexId) -> VertexSet:
        """x's component of g minus the edges e0, given as pairs in either
        order; the same object for every vertex of the piece.

        Let h be the largest multiplicity of an edge of e0 that g holds (0
        when none).  No edge heavier than h is removed, so the piece is a
        union of the classes of the quotient at threshold h, and the walk
        runs on that quotient: two classes stay joined unless the distinct
        edges of e0 between them carry all of their multiplicity.  At h = 0
        the classes are g's components."""
        found = self._pieces.setdefault(e0, [])
        for p in found:
            if x in p:
                return p
        g = self.g
        mult = {edge_key(u, v): g.multiplicity(u, v) for u, v in e0}
        owner, members, adj = self.quotient(max(mult.values(), default=0))
        between: Dict[Tuple[int, int], int] = {}
        for (u, v), m in mult.items():
            if m and owner[u] != owner[v]:
                i, j = owner[u], owner[v]
                between[i, j] = between[j, i] = between.get((i, j), 0) + m
        seen = {owner[x]}
        queue = [owner[x]]
        for i in queue:
            for j, m in adj[i]:
                if j not in seen and m > between.get((i, j), 0):
                    seen.add(j)
                    queue.append(j)
        found.append(frozenset(v for i in queue for v in members[i]))
        return found[-1]

    def boundary(self, side: Iterable[VertexId]) -> EdgeSet:
        key = frozenset(side)
        if key not in self._boundary:
            self._boundary[key] = boundary(self.g, key)
        return self._boundary[key]

    def cut_size(self, side: Iterable[VertexId]) -> int:
        key = frozenset(side)
        if key not in self._sizes:
            self._sizes[key] = sum(self.g.multiplicity(u, v)
                                   for u, v in self.boundary(key))
        return self._sizes[key]

    def atomic_subsets(self, side: Iterable[VertexId]) -> Tuple[EdgeSet, ...]:
        """The nonempty subsets of the boundary of `side` that induce an
        atomic cut, by size and then in sorted order: the edge sets E' of
        the realizable pairs (E', side)."""
        key = frozenset(side)
        if key not in self._atomic:
            es = sorted(self.boundary(key))
            subsets = (frozenset(combo) for r in range(1, len(es) + 1)
                       for combo in itertools.combinations(es, r))
            self._atomic[key] = tuple(
                e for e in subsets if induces_atomic_cut(self, e))
        return self._atomic[key]


# -- atomic cuts -----------------------------------------------------------

def induces_atomic_cut(cs: CutSearch, e0: Iterable[EdgeKey]) -> bool:
    """True iff e0 is the cut-set of an atomic cut of some connected
    component of cs.g: removing e0 from that component leaves exactly two
    pieces, and every edge of e0 joins them."""
    g, piece = cs.g, cs.piece
    edges = frozenset(edge_key(u, v) for u, v in e0)
    if not edges or not all(g.has_vertex(x) for e in edges for x in e):
        return False
    # the pieces of g minus e0 met so far; a piece lies in one component
    sides: List[VertexSet] = []
    for u, v in edges:
        pu, pv = piece(edges, u), piece(edges, v)
        if pu is pv:
            return False
        for p in (pu, pv):
            if all(p is not q for q in sides):
                sides.append(p)
        if len(sides) > 2:
            return False
    # every pair of e0 joins the same two pieces; they lie in one component
    # exactly when some pair is an edge of g
    return any(g.has_edge(u, v) for u, v in edges)


def induced_cut_side(cs: CutSearch, e0: Iterable[EdgeKey],
                     inner: Iterable[VertexId]) -> Set[VertexId]:
    """The side L of the cut induced by e0 that contains `inner`: the union
    of the pieces of g minus e0 that hold a vertex of `inner`.  `inner` lies
    in one component of g (every caller passes a connected side), and a
    piece lies in one component, so L does too."""
    edges = frozenset(edge_key(u, v) for u, v in e0)
    side: Set[VertexId] = set()
    for v in inner:
        if v not in side:
            side |= cs.piece(edges, v)
    return side


# -- bounded cut enumeration ----------------------------------------------

def enumerate_simple_cuts(cs: CutSearch, x: VertexId, c: int, t: int,
                          excluded: Iterable[VertexId] = ()
                          ) -> Set[VertexSet]:
    """All V' of g = cs.g with x in V', |V'| <= t, G[V'] connected, cut
    size <= c, and V' disjoint from `excluded` (x itself may be listed
    there).

    No cut of size <= c crosses an edge of multiplicity above c, so every
    such V' is a union of heavy classes: the components of the edges heavier
    than c, such as the gadget's path edges and the query pendants.  The
    search therefore runs on the quotient by those edges, the one cs keeps
    for c.  A class weighs its vertex count towards t, and it is shut when
    it holds a vertex of `excluded`.  Include/exclude
    branching on the next undecided neighbor class of the grown side, with
    the remaining multiplicity budget tracked incrementally: every valid
    side is one leaf, and any branch whose committed boundary already
    exceeds c dies immediately.  Every boundary edge of a side is charged
    once, when its second end is decided, so a leaf's cut size is c minus
    the budget left; it is recorded in the search.
    """
    if not cs.g.has_vertex(x):
        raise RejectedOp("enumerate-simple-cuts", f"vertex {x} absent")
    owner, members, nbrs = cs.quotient(c)
    sizes = cs._sizes
    shut: Set[int] = {owner[v] for v in excluded if v != x and v in owner}

    out: Set[VertexSet] = set()
    kx = owner[x]
    # every side holds x's whole class; the side {x} is kept for any t
    if kx in shut or len(members[kx]) > max(t, 1):
        return out
    side: Set[int] = {kx}
    queue: List[int] = [k for k, _ in nbrs[kx]]

    def rec(budget: int, i: int, weight: int) -> None:
        while i < len(queue) and (queue[i] in side or queue[i] in shut):
            i += 1
        if i == len(queue):
            found = frozenset(v for k in side for v in members[k])
            out.add(found)
            sizes[found] = c - budget
            return
        k = queue[i]
        cost_in = sum(m for j, m in nbrs[k] if j in shut)
        if weight + len(members[k]) <= t and budget >= cost_in:
            side.add(k)
            mark = len(queue)
            queue.extend(j for j, _ in nbrs[k]
                         if j not in side and j not in shut)
            rec(budget - cost_in, i + 1, weight + len(members[k]))
            del queue[mark:]
            side.remove(k)
        cost_out = sum(m for j, m in nbrs[k] if j in side)
        if budget >= cost_out:
            shut.add(k)
            rec(budget - cost_out, i + 1, weight)
            shut.remove(k)

    start = c - sum(m for k, m in nbrs[kx] if k in shut)
    if start >= 0:
        rec(start, 0, len(members[kx]))
    return out


def enumerate_anchored_cuts(cs: CutSearch, anchors: Iterable[VertexId],
                            c: int, t: int
                            ) -> List[Tuple[VertexId, VertexSet]]:
    """Every simple (t, c)-cut side meeting `anchors` at least once, listed
    once, tagged with the smallest anchor it contains and ordered by
    (anchor, side).  Matches the union of per-anchor enumerations processed
    with first-hit deduplication."""
    out: List[Tuple[VertexId, VertexSet]] = []
    done: List[VertexId] = []
    for x in sorted(set(anchors)):
        sides = cs.simple_cuts(x, c, t, excluded=done)
        out.extend((x, side) for side in
                   sorted(sides, key=lambda v: tuple(sorted(v))))
        done.append(x)
    return out


def enumerate_cuts(cs: CutSearch, terms: Iterable[VertexId],
                   t_prime: Iterable[VertexId], c: int, t: int
                   ) -> Set[VertexSet]:
    """All (T', terms \\ T', t, c)-cut sides V' of cs.g such that every
    connected component of G[V'] contains a vertex of T'.  `terms` are the
    terminals of DS1 and DS2 together.  Empty if |T'| > t."""
    tp = frozenset(t_prime)
    if len(tp) > t:
        return set()
    terms = frozenset(terms)
    if not tp <= terms:
        raise RejectedOp("enumerate-cuts", "T' not within the terminal sets")
    universe: Set[VertexSet] = {
        side for _, side in enumerate_anchored_cuts(cs, tp, c, t)}
    # keep only pieces whose terminal trace stays within T'
    pieces = [v for v in universe if (v & terms) <= tp]
    out: Set[VertexSet] = set()
    # unions of at most c disjoint pieces, each union grown by later pieces
    # only; disjointness and the size bound hold for every subfamily of a
    # family they hold for, so the unions do not depend on the pieces'
    # order.  An explicit stack, since a recursive closure would keep cs
    # alive in a reference cycle after the call
    stack: List[Tuple[int, VertexSet, int]] = [(0, frozenset(), 0)]
    while stack:
        start, union, depth = stack.pop()
        if union and union & terms == tp and cs.cut_size(union) <= c:
            out.add(union)
        if depth == c:
            continue
        for idx in range(start, len(pieces)):
            piece = pieces[idx]
            if not union & piece and len(union) + len(piece) <= t:
                stack.append((idx + 1, union | piece, depth + 1))
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
        """Test oracle: a pair from edges given as pairs in either order
        and any iterable side."""
        return cls(frozenset(edge_key(u, v) for u, v in edges),
                   frozenset(side))
