"""Interception-anchor (IA) edge sets and their decremental maintenance.

An IA set for (T, t, q, d, c) is the intercluster edge set of a
connected-cluster vertex partition such that every small terminal-separating
cut has a q-side replacement whose cut-set is spread c-deep across clusters.
When vertices are removed from the ambient graph, a small "repair set" of
extra edges restores IA validity for the surviving terminals; the repair set
is assembled from three sub-sets, one per class of terminal bipartition,
via an elimination procedure over realizable pairs.

The repair set reads plain graphs and terminal sets and mutates none of
them: a step that deletes edges from g keeps them in a set, and a probe
of g minus those edges is CutSearch.piece, which walks from the vertices
asked about only.

Every helper of one repair_set call reads its graph g through one
CutSearch (see cutprimitives), built when the call starts and dropped when
it returns: each heavy-class quotient, simple-cut search, piece of g minus
an edge set, boundary of a side and list of the side's boundary subsets
that induce an atomic cut is then computed once per call, however many
helpers ask for it.  Every helper takes that CutSearch as its first
argument in place of g.

A realizable pair (E', V') is a simple small cut side V' with a subset E'
of its boundary that induces an atomic cut; every helper reads the E' of a
side from CutSearch.atomic_subsets.

Two typed sets first test an exact certificate that a part of their answer
is empty, and skip that part's search when it holds; each docstring states
its certificate and why it holds.  Type one returns the empty set when
every vertex of S is joined to the least one by more than c edge-disjoint
paths (a capped max-flow, cutprimitives._capped_maxflow).  Type three skips
its first part when all of its terminals lie in one component of g of at
most t vertices, and its second when T is empty.  Type two returns the
empty set at once for an empty T.  repair_set hands the typed sets DS3's
component labels as a dict that walks and labels a component of g3 only
when a vertex of it is first read, so a call whose typed sets all return
early labels nothing, and a component no typed set reads is never walked.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (AbstractSet, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from .cutprimitives import (
    CutSearch,
    RealizablePair,
    _capped_maxflow,
    boundary,
    component_of,
    components,
    enumerate_cuts,
    enumerate_anchored_cuts,
    induced_cut_side,
)
from .errors import RejectedOp
from .multigraph import EdgeKey, MultiGraph, VertexId, edge_key

EdgeSet = FrozenSet[EdgeKey]
Terminals = AbstractSet[VertexId]
# vertex -> the least vertex of its component
Labels = Mapping[VertexId, VertexId]

# The logs open under recording(), innermost last.
_LOGS: List[List[Tuple[int, int, int]]] = []


@contextmanager
def recording() -> Iterator[List[Tuple[int, int, int]]]:
    """A list that collects (|S|, |W|, c) of every repair_set call made
    inside the block.  Blocks may nest: a call is recorded in the list of
    every open block.  Calls made outside every block record nothing."""
    log: List[Tuple[int, int, int]] = []
    _LOGS.append(log)
    try:
        yield log
    finally:
        _LOGS.pop()


@dataclass(frozen=True)
class IAParams:
    """Test oracle: the parameters of an IA set, checked when made."""
    t: int
    q: int
    d: int
    c: int

    def __post_init__(self):
        if not (self.q >= self.t >= 1 and self.d >= self.c >= 1):
            raise RejectedOp("ia-params", f"invalid parameters {self}")


@dataclass
class IASet:
    edges: Set[EdgeKey]
    params: IAParams
    # layer derivation: list of (edge set, t_i, q_i) in composition order
    derivation: List[Tuple[FrozenSet[EdgeKey], int, int]] = field(
        default_factory=list)


@dataclass
class BipartitionSystem:
    """The held realizable pairs with the S-trace of each (parallel lists);
    the traces are distinct, so an S-partition {P, S-P} holds at most one
    pair per side.  `candidates` lists every (pair, S-trace) the system
    chose from, each pair once: the pairs on the simple (t, c)-cut sides
    meeting S whose trace splits S nontrivially."""
    pairs: List[RealizablePair]
    traces: List[FrozenSet[VertexId]]
    candidates: List[Tuple[RealizablePair, FrozenSet[VertexId]]]


def _ends(edges: Iterable[EdgeKey]) -> Set[VertexId]:
    return {v for e in edges for v in e}


def _canon(pair: RealizablePair):
    return (tuple(sorted(pair.side)), tuple(sorted(pair.edges)))


def _separates(cs: CutSearch, e0: EdgeSet, side: Iterable[VertexId],
               x: VertexId) -> bool:
    """The atomic cut induced by e0 puts x opposite `side`: x's piece of g
    minus e0 holds no vertex of `side`, so it is not in the union of their
    pieces, the side induced_cut_side gives."""
    return cs.piece(e0, x).isdisjoint(side)


def _split(cs: CutSearch, e0: EdgeSet, ends: Iterable[VertexId]) -> bool:
    """Some two of `ends` fall in different components of g minus e0;
    CutSearch.piece gives one object for every vertex of a piece."""
    return len({id(cs.piece(e0, x)) for x in ends}) > 1


class _ComponentLabels(dict):
    """Each vertex of g mapped to the least vertex of its component, as
    component_labels(g) maps it; a component is walked and labelled when a
    vertex of it is first read."""

    def __init__(self, g: MultiGraph):
        super().__init__()
        self.g = g

    def __missing__(self, x: VertexId) -> VertexId:
        comp = component_of(self.g, x)
        self.update(dict.fromkeys(comp, min(comp)))
        return self[x]


def _label_of(comp: Labels, ends: Iterable[VertexId]) -> Optional[VertexId]:
    """The component label all of `ends` share; None if they have none or
    several."""
    ids = {comp[x] for x in ends}
    return next(iter(ids)) if len(ids) == 1 else None


# -- elimination procedure -------------------------------------------------

def elimination(cs: CutSearch, terms: Terminals,
                gamma: Iterable[RealizablePair]) -> Set[EdgeKey]:
    """Boundary edges of a maximal chain of pairs from `gamma`; the output
    intercepts a small terminal-separating cut for every pair.  `terms` are
    the terminals of DS1 and DS2 together.  Each chosen pair's edges are
    deleted, cumulatively, from g = cs.g, and a pair leaves the pool once
    some witness cut's ends fall in different components of what is left.
    Neither the order of `gamma` nor a pair listed twice changes the
    output."""
    remaining = sorted(set(gamma), key=_canon)
    if not remaining:
        return set()
    terms = frozenset(terms)
    w: Set[EdgeKey] = set()
    # witness cuts per pair: boundary endpoint sets in the original graph
    witness: Dict[RealizablePair, List[Tuple[VertexId, ...]]] = {}
    for pair in remaining:
        cuts = enumerate_cuts(cs, terms, pair.side & terms,
                              cs.cut_size(pair.side), len(pair.side))
        witness[pair] = [tuple(sorted(_ends(cs.boundary(v)))) for v in
                         sorted(cuts, key=lambda s: tuple(sorted(s)))]
    removed: EdgeSet = frozenset()     # the chosen pairs' edges
    while remaining:
        chosen = None
        for cand in remaining:
            if not any(_ends(other.edges) <= cand.side
                       for other in remaining if other is not cand):
                chosen = cand
                break
        if chosen is None:
            chosen = remaining[0]
        w |= cs.boundary(chosen.side) - removed
        removed |= chosen.edges
        remaining.remove(chosen)
        remaining = [pair for pair in remaining
                     if not any(_split(cs, removed, ends)
                                for ends in witness[pair])]
    return w


# -- bipartition system ----------------------------------------------------

def bipartition_system(cs: CutSearch, s: Terminals, c: int, t: int
                       ) -> BipartitionSystem:
    """A maximal pairwise-laminar family of realizable pairs splitting the
    terminal set S nontrivially; at most 2(|S|-1) pairs.

    Each pair is held for its S-trace: the terminals on the named side of the
    atomic cut it induces.  Held traces are distinct and pairwise nested or
    disjoint.  A laminar family of nonempty subsets of an n-set has at most
    2n-1 members; the held traces plus S itself form one, so at most
    2(|S|-1) pairs are held.

    The two sides of an S-partition {P, S-P} are separate traces: a small cut
    whose named side holds P does not replace one whose named side holds S-P.
    The second side is skipped only when the complement of the first side's
    pair within its component replaces its cut: the complement traces S-P,
    its cut is no larger, and it has at most 3t vertices, which fits every
    replacement budget q + t that repair_set serves (it requires q >= 2t).

    The boundary of each held pair is deleted from g = cs.g, and a later
    pair is skipped when the ends of its boundary in what is left fall in
    different components of it.

    A side that holds all of S is skipped before its boundary subsets are
    tested: the side a subset induces contains the side, so its trace is S.
    """
    s = frozenset(s)
    u: List[Tuple[RealizablePair, FrozenSet[VertexId]]] = []
    for _, side in enumerate_anchored_cuts(cs, s, c, t):
        if s <= side:
            continue
        for e_sub in cs.atomic_subsets(side):
            trace = s & induced_cut_side(cs, e_sub, side)
            if trace and trace != s:
                u.append((RealizablePair(e_sub, side), trace))
    u.sort(key=lambda item: _canon(item[0]))
    equivalent: Dict[int, List[int]] = defaultdict(list)
    for i, (p1, tr1) in enumerate(u):
        for j, (p2, tr2) in enumerate(u):
            if i != j and (p1.side & p2.side) and tr1 == tr2:
                equivalent[i].append(j)
    alive = [True] * len(u)
    pairs: List[RealizablePair] = []
    traces: List[FrozenSet[VertexId]] = []
    removed: EdgeSet = frozenset()     # the held pairs' boundaries
    for i, (pair, trace) in enumerate(u):
        if not alive[i]:
            continue
        b = cs.boundary(pair.side) - removed
        if _split(cs, removed, _ends(b)):
            continue
        if trace in traces:
            continue
        # laminarity rule: held traces nest or are disjoint
        if any(trace & tr and not (trace < tr or tr < trace)
               for tr in traces):
            continue
        if s - trace in traces:
            j = traces.index(s - trace)
            rest = cs.piece(frozenset(), min(pairs[j].side)) - pairs[j].side
            if (rest & s == trace
                    and cs.cut_size(pairs[j].side) <= cs.cut_size(pair.side)
                    and len(rest) <= 3 * t):
                continue
        pairs.append(pair)
        traces.append(trace)
        removed |= b
        for j in equivalent[i]:
            alive[j] = False
    return BipartitionSystem(pairs, traces, u)


# -- type 1 / 2 / 3 repair sets -------------------------------------------
#
# Each reads g (the graph of DS1 and DS2), S (DS1's terminals), T (DS2's
# terminals, disjoint from S) and the component labels of DS3's graph.

def _s_unsplittable(g: MultiGraph, s: FrozenSet[VertexId], c: int) -> bool:
    """True when every vertex of the nonempty S has more than c
    edge-disjoint paths in g, multiplicities counted, to s0 = min(S); then
    no cut of size <= c separates two vertices of S, since
    lambda(x, y) >= min(lambda(x, s0), lambda(s0, y))."""
    s0 = min(s)
    return all(_capped_maxflow(g, s0, b, c + 1) > c for b in s if b != s0)


def _one_small_component(g: MultiGraph, terms: FrozenSet[VertexId],
                         t: int) -> bool:
    """True when the nonempty `terms` lie in one component of g of at most
    t vertices.  A walk from min(terms) sizes that component, but when g
    has at most t vertices, so has every component, and the walk stops
    once it has seen every terminal."""
    start = min(terms)
    sized = g.vertex_count() <= t
    missing = set(terms)
    missing.discard(start)
    seen = {start}
    queue = [start]
    for u in queue:
        if sized and not missing:
            break
        for v in g.adjacent(u):
            if v not in seen:
                seen.add(v)
                missing.discard(v)
                queue.append(v)
    return not missing and len(seen) <= t


def type_one_repair_set(cs: CutSearch, s: Terminals, t_set: Terminals,
                        comp3: Labels, c: int, t: int) -> Set[EdgeKey]:
    """Repair edges for terminal bipartitions that split S nontrivially.

    A held pair's candidates are the bipartition system's candidates with
    the held pair's S-trace whose side meets the held pair's side and
    whose boundary ends lie in one component of DS3 that holds S.

    Certificate: the set is empty when _s_unsplittable(g, S, c) holds,
    and is then returned before any search.  The set is empty when the
    system has no candidate.  A candidate (E', V') has E' within the
    boundary of V', so E' weighs at most c, and g minus E' splits the
    component of V' into two pieces with exactly E' between them.  Its
    S-trace, the vertices of S in the piece of V', is neither empty nor S,
    so E' (or no edge at all, across components) separates some x and y
    of S, and lambda(x, y) <= c."""
    s = frozenset(s)
    if not s or _s_unsplittable(cs.g, s, c):
        return set()
    terms = s | frozenset(t_set)
    held = {comp3[x] for x in s}
    system = bipartition_system(cs, s, c, t)
    w1: Set[EdgeKey] = set()
    for pair, trace in zip(system.pairs, system.traces):
        buckets: Dict[VertexId, List[RealizablePair]] = defaultdict(list)
        for cand, cand_trace in system.candidates:
            if cand_trace != trace or not (cand.side & pair.side):
                continue
            cid = _label_of(comp3, _ends(cs.boundary(cand.side)))
            if cid in held:
                buckets[cid].append(cand)
        w1 |= set(cs.boundary(pair.side))
        for cid in sorted(buckets):
            w1 |= elimination(cs, terms, buckets[cid])
    return w1


def type_two_repair_set(cs: CutSearch, s: Terminals, t_set: Terminals,
                        comp3: Labels, c: int, t: int, q: int
                        ) -> Set[EdgeKey]:
    """Repair edges for terminal bipartitions avoiding S entirely.  Each
    vertex of S collects the terminals of T it reaches, a subset of T, so
    an empty T gives the empty set at once."""
    t_set = frozenset(t_set)
    if not t_set:
        return set()
    s = frozenset(s)
    terms = s | t_set
    w2: Set[EdgeKey] = set()
    for s_v in sorted(s):
        reach: Set[VertexId] = set()
        for side in cs.simple_cuts(s_v, c, q):
            reach |= (side & t_set)
        gamma: List[RealizablePair] = []
        for _, side in enumerate_anchored_cuts(cs, reach, c, t):
            if side & s:
                continue
            b = cs.boundary(side)
            if _label_of(comp3, _ends(b)) != comp3[s_v]:
                continue
            alts = enumerate_cuts(cs, terms, side & t_set, cs.cut_size(side),
                                  q)
            if any(len({comp3[y] for y in _ends(cs.boundary(alt))}) > 1
                   for alt in alts):
                continue
            gamma.extend(RealizablePair(e_sub, side)
                         for e_sub in cs.atomic_subsets(side)
                         if _separates(cs, e_sub, side, s_v))
        w2 |= elimination(cs, terms, gamma)
    return w2


def type_three_repair_set(cs: CutSearch, s: Terminals, t_set: Terminals,
                          comp3: Labels, c: int, t: int) -> Set[EdgeKey]:
    """Repair edges for terminal bipartitions containing all of S.

    Certificates, each tested before its part's search.  Part one adds
    nothing when _one_small_component(g, S | T, t) holds: that component P
    is a connected side of at most t vertices, with cut size 0, holding
    every terminal, so enumerate_cuts lists it, and it is the only side
    listed with cut size 0 (a listed side is a union of connected sides
    that meet the terminals, so inside P, and cut size 0 makes it all of
    P); the best side is P, whose boundary is empty.  Part two adds nothing
    when T is empty: it keeps only sides that miss a vertex of T."""
    s = frozenset(s)
    t_set = frozenset(t_set)
    terms = s | t_set
    w3: Set[EdgeKey] = set()
    if 0 < len(terms) <= t and not _one_small_component(cs.g, terms, t):
        h = enumerate_cuts(cs, terms, terms, c, t)
        if h:
            best = min(h, key=lambda v: (cs.cut_size(v), tuple(sorted(v))))
            w3 |= set(cs.boundary(best))
    if not s or not t_set:
        return w3
    held = {comp3[x] for x in s}
    buckets: Dict[VertexId, List[FrozenSet[VertexId]]] = defaultdict(list)
    s0 = min(s)
    for side in sorted(cs.simple_cuts(s0, c, t),
                       key=lambda v: tuple(sorted(v))):
        if (side & s) != s or (side & t_set) == t_set:
            continue
        cid = _label_of(comp3, _ends(cs.boundary(side)))
        if cid in held:
            buckets[cid].append(side)
    for cid in sorted(buckets):
        best_e: EdgeSet = frozenset()
        best_size = None
        root: Optional[VertexId] = None
        for side in buckets[cid]:
            for e_sub in cs.atomic_subsets(side):
                outside = sorted(_ends(e_sub) - side)
                if not outside:
                    continue
                x = outside[0]
                # x's component of g minus e_sub, probed without a copy
                piece = cs.piece(e_sub, x)
                found = piece & t_set
                vn = len(piece)
                if found and t < vn and (best_size is None or vn < best_size):
                    best_size = vn
                    best_e = e_sub
                    root = min(found)
        w3 |= set(best_e)
        if root is not None:
            gamma = [RealizablePair(e_sub, side) for side in buckets[cid]
                     if root not in side
                     for e_sub in cs.atomic_subsets(side)
                     if _separates(cs, e_sub, side, root)]
            w3 |= elimination(cs, terms, gamma)
    return w3


# -- full repair set and initial construction ------------------------------

def repair_set(g: MultiGraph, t2: Terminals, g3: MultiGraph,
               s: Iterable[VertexId], c: int, t: int, q: int
               ) -> Set[EdgeKey]:
    """Union of the three typed repair sets.  DS1 is g with terminals S, DS2
    is g with terminals t2 minus S, and DS3 is g3, on g's vertices, with
    terminals S.  Nothing is mutated.  Replacements are budgeted q + t
    vertices; q >= 2t is required (see bipartition_system).  The helpers
    share one CutSearch over g, which is dropped when the call returns.
    A repair set is a set of g's edges, so an edgeless g gets the empty set
    without a search.  DS3's labels are computed only for the components
    of g3 a typed set reads (see the module docstring)."""
    if q < 2 * t:
        raise RejectedOp("repair-set", f"need q >= 2t, got q={q} t={t}")
    s_set = frozenset(s)
    for x in sorted(s_set):
        if not (g.has_vertex(x) and g3.has_vertex(x)):
            raise RejectedOp("repair-set", f"vertex {x} absent")
    w: Set[EdgeKey] = set()
    if g.distinct_edge_count():
        t_set = frozenset(t2) - s_set
        comp3 = _ComponentLabels(g3)
        cs = CutSearch(g)
        w = type_one_repair_set(cs, s_set, t_set, comp3, c, t)
        w |= type_two_repair_set(cs, s_set, t_set, comp3, c, t, q)
        w |= type_three_repair_set(cs, s_set, t_set, comp3, c, t)
    for log in _LOGS:
        log.append((len(s_set), len(w), c))
    return w


def initial_ia(g: MultiGraph, t_verts: Iterable[VertexId], t: int, q: int,
               d: int) -> Set[EdgeKey]:
    """An IA(T, t, q, d, 1) set built as a repair set against an empty prior
    IA set (all of T treated as boundary terminals, and g as DS3's graph)."""
    t_verts = sorted(set(t_verts))
    if len(t_verts) <= 1:
        return set()
    if q < 3 * t:
        raise RejectedOp("initial-ia", f"need q >= 3t, got q={q} t={t}")
    return repair_set(g, t_verts, g, t_verts, d, t, q - t)


def layered_ia(g: MultiGraph, t_verts: Iterable[VertexId],
               layers: List[Tuple[int, int]], d: int) -> IASet:
    """Test oracle: compose per-layer IA sets.  Layer i is built on the
    graph minus all earlier layers, with the earlier boundary endpoints added
    as terminals.  `layers` lists (t_i, q_i); the union is an IA set of
    strength k at depth budget d (composition requires q_i * (d+1) <=
    t_{i+1})."""
    for (t_i, q_i), (t_n, _) in zip(layers, layers[1:]):
        if q_i * (d + 1) > t_n:
            raise RejectedOp("layered-ia",
                             f"composition needs q_i(d+1) <= t_next: "
                             f"{q_i}*{d + 1} > {t_n}")
    edges: Set[EdgeKey] = set()
    terms = set(t_verts)
    derivation = []
    h = g.copy()
    for i, (t_i, q_i) in enumerate(layers):
        layer = initial_ia(h, terms, t_i, q_i, max(d - i, 1))
        derivation.append((frozenset(layer), t_i, q_i))
        edges |= layer
        terms |= _ends(layer)
        for u, v in layer:
            h.remove_edge(u, v)
    k = len(layers)
    params = IAParams(layers[0][0], layers[-1][1] * (d + 1), d, min(k, d))
    return IASet(edges, params, derivation)


# -- brute-force IA validity checker ---------------------------------------

def verify_ia(g: MultiGraph, t_verts: Iterable[VertexId],
              edges: Iterable[EdgeKey], params: IAParams) -> bool:
    """Test oracle: exhaustive check of both IA conditions; components must
    be small."""
    edges = {edge_key(u, v) for u, v in edges}
    t_all = set(t_verts)
    for e in edges:
        if not g.has_edge(*e):
            return False
    clusters = components(g, banned_edges=edges)
    cluster_of = {}
    for i, comp in enumerate(clusters):
        for v in comp:
            cluster_of[v] = i
    crossing = {e for e in g.edge_keys() if cluster_of[e[0]] != cluster_of[e[1]]}
    if crossing != edges:
        return False
    for comp in components(g):
        if len(comp) > 16:
            raise RejectedOp("verify-ia", f"component too large ({len(comp)})")
        if not _verify_ia_component(g, comp, t_all & comp, edges, params):
            return False
    return True


def _verify_ia_component(g, comp, t_comp, edges, params):
    """Test oracle: verify_ia's check of one component."""
    if len(t_comp) < 2:
        return True
    verts = sorted(comp)
    by_trace = defaultdict(list)
    for r in range(1, len(verts)):
        for sub in itertools.combinations(verts, r):
            side = frozenset(sub)
            cs = boundary(g, side)
            size = sum(g.multiplicity(u, v) for u, v in cs)
            by_trace[side & frozenset(t_comp)].append((size, len(side), cs))
    cluster_of = {}
    for i, cl in enumerate(components(g, banned_edges=edges)):
        for v in cl:
            cluster_of[v] = i
    slack = params.d - params.c
    for r in range(1, len(t_comp)):
        for t_sub in itertools.combinations(sorted(t_comp), r):
            trace = frozenset(t_sub)
            entries = by_trace.get(trace, [])
            small = [sz for sz, nv, _ in entries
                     if nv <= params.t and sz <= params.d]
            if not small:
                continue
            alpha = min(small)
            found = False
            for sz, nv, cs in entries:
                if nv > params.q or sz > alpha:
                    continue
                per_cluster = defaultdict(int)
                for u, v in cs:
                    if cluster_of[u] == cluster_of[v]:
                        per_cluster[cluster_of[u]] += 1
                if all(k <= max(alpha - params.c, 0)
                       for k in per_cluster.values()):
                    found = True
                    break
            if not found:
                return False
    return True
