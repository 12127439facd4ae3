"""Top-level fully dynamic c-edge-connectivity engine and brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from .cutpartition import (CutPartitionDS, build_sparsifier,
                           cut_partition_update, update_layer_indices)
from .cutprimitives import _capped_maxflow, component_of
from .errors import RejectedOp
from .multigraph import (CompositeOp, DeleteEdge, InsertEdge, InsertVertex,
                         MultiGraph, ReductionImage, UpdateOp, UpdateSeq,
                         VertexId, apply_seq, changed_vertices, degree_reduce,
                         gadget_id, name_set)
from .multilevel import (MultiLevelDS, ParamSchedule, make_schedule,
                         preprocess_multi_level, splice_multi_level)
from .onlinebatch import Scheduler


def offline_oracle(g: MultiGraph, x: VertexId, y: VertexId, c: int) -> bool:
    """True iff x and y are c-edge connected (c edge-disjoint paths exist)."""
    if not (g.has_vertex(x) and g.has_vertex(y)):
        raise RejectedOp("offline-oracle", f"vertex {x} or {y} absent")
    if x == y:
        return True
    return _capped_maxflow(g, x, y, c) >= c


def edge_connectivity(g: MultiGraph, x: VertexId, y: VertexId, cap_at: int) -> int:
    """Test oracle: min(cap_at, x-y edge connectivity)."""
    if x == y:
        return cap_at
    return _capped_maxflow(g, x, y, cap_at)

# -- fully dynamic engine --------------------------------------------------

class _Deferred(MultiLevelDS):
    """preprocess_multi_level(g, sched), run the first time anything reads
    the instance and never again.  g must stay unchanged until then."""

    def __init__(self, g: MultiGraph, sched: ParamSchedule):
        self.g, self.schedule, self.round = g, sched, 0

    @cached_property
    def levels(self) -> List[CutPartitionDS]:
        return preprocess_multi_level(self.g, self.schedule).levels


def _component_record(g: MultiGraph, v: VertexId
                      ) -> Tuple[Set[VertexId], int]:
    """v's component of g and that component's distinct edge count, read
    off g when the component is the whole graph."""
    comp = component_of(g, v)
    if len(comp) == g.vertex_count():
        return comp, g.distinct_edge_count()
    return comp, sum(map(g.degree, comp)) // 2


class StackDS:
    """Batchable wrapper over the sparsifier stack.  It holds one instance:
    the output of its latest batch_update, or of its first initialize
    before any batch.

    Every output equals preprocess_multi_level of its own graph (see
    splice_multi_level), so any earlier output is as exact a splice base
    as a batch's `inst`, and the latest one is the cheapest: under the
    scheduler a serve's graph differs from the previous serve's only in
    the components its newest op touched.  So batch_update reads `inst`
    only when nothing is held (before any initialize, or after a raise).
    Its graph is the post-batch graph `g_after` it is handed; it applies
    no op itself.  It preprocesses only the components of that graph that
    hold a changed vertex, one whose adjacency differs from the held
    graph's, and splices that part into the held instance.  It rebuilds
    the whole graph instead, through initialize with nothing held, when
    the batch touches every component (on a one-component graph every
    change is a change of everything), when the part's level count
    differs from the held instance's, or when the part alone fails to
    preprocess.

    `index` maps vertices of the held graph to one record per component:
    the component's vertex set and its distinct edge count.  It holds
    whole components only, and not every component.  A held component
    with no changed vertex and no vertex that g_after lacks keeps every
    adjacency, so it is a component of g_after too.  Every other
    component of g_after holds a changed vertex: a piece of a held
    component without one would be closed under the held adjacency, so
    it would be the whole held component.  So batch_update walks g_after
    once, from the changed vertices only, and that walk is the part.  It
    reads every other component it needs from the index, and walks only
    the ones the index lacks.  After a splice it drops the vertices
    g_after lacks and records every component it walked.  That drops
    every stale record: each other vertex of a held component with a
    changed or gone vertex lies in a component of g_after with a changed
    vertex, which the walk recorded anew.  The index is emptied whenever
    batch_update takes `inst` and whenever initialize preprocesses with
    nothing held, and a raise leaves it as it was.

    `source` is the graph the held instance was built from: initialize's g
    or the latest batch's g_after, and None while the held instance is a
    batch's `inst`.  The held graph equals source by value, and nobody
    writes source once it is handed over (see BatchableDS).  So when
    copy() made g_after from source, every vertex outside g_after's log
    (MultiGraph.log_since) has the held graph's adjacency, and
    changed_vertices compares only the logged vertices; otherwise it
    compares every vertex of g_after.  Under the scheduler each serve's
    g_after is a copy of the previous serve's, so a serve compares only
    the vertices its newest op wrote.

    initialize with nothing held preprocesses g and holds the result.  Any
    other initialize is a level-0 re-initialize, whose output is read only
    after a raise, so it returns an instance that preprocesses g the first
    time it is read (and raises then if g does not preprocess).

    The step charge does not depend on what is held, deferred or indexed.
    initialize charges the vertices and distinct edges of its graph plus
    1.  batch_update charges len(seq) plus the vertices and distinct edges
    of the post-batch components that hold a vertex seq names, which is
    what rebuilding the touched components costs; it reads each of them
    from the walk or the index.  When those are the whole graph it
    charges an initialize instead, and on the last two fallbacks an
    initialize more.  The desk schedules have no spare update rounds, so
    rebuilding is the deterministic batch rule; the round-consuming update
    path is what queries exercise."""

    def __init__(self, sched: ParamSchedule):
        self.sched = sched
        self.steps = 0
        self.held: Optional[MultiLevelDS] = None
        self.source: Optional[MultiGraph] = None
        self.index: Dict[VertexId, Tuple[Set[VertexId], int]] = {}

    def initialize(self, g: MultiGraph) -> MultiLevelDS:
        self.steps += g.vertex_count() + g.distinct_edge_count() + 1
        if self.held is not None:
            return _Deferred(g, self.sched)
        self.held, self.source = preprocess_multi_level(g, self.sched), g
        self.index = {}
        return self.held

    def batch_update(self, inst: MultiLevelDS, g_before: MultiGraph,
                     seq: UpdateSeq, g_after: MultiGraph) -> MultiLevelDS:
        if self.held is None:   # before any initialize, or after a raise
            self.held, self.source, self.index = inst, None, {}
        g, index = g_after, self.index
        changed, gone = changed_vertices(g, self.held.graph,
                                         g.log_since(self.source))
        walked: Dict[VertexId, Tuple[Set[VertexId], int]] = {}
        for v in changed:
            if v not in walked:
                rec = _component_record(g, v)
                walked.update(dict.fromkeys(rec[0], rec))
        part = set(walked)
        # Each op names the vertices whose edges it changes, and a touched
        # component that splits keeps a named vertex in every piece, so the
        # batch touches exactly the post-batch components that hold a named
        # vertex.
        touched = {}        # id -> record of each touched component
        for v in name_set(seq):
            if not g.has_vertex(v):
                continue
            rec = walked.get(v) or index.get(v)
            if rec is None:
                rec = _component_record(g, v)
                walked.update(dict.fromkeys(rec[0], rec))
            touched[id(rec)] = rec
        size = sum(len(comp) for comp, _ in touched.values())
        self.steps += len(seq)
        out = None
        if size < g.vertex_count():
            self.steps += size + sum(m for _, m in touched.values())
            out = self._splice(g, part, gone)
        if out is None:
            # the batch touches every component, or the held instance is
            # no base for g: rebuild whole, through an initialize that has
            # nothing held
            self.held = None
            out = self.initialize(g)
        else:
            for v in gone:
                index.pop(v, None)
            index.update(walked)
        self.held, self.source = out, g
        return out

    def _splice(self, g: MultiGraph, part: Set[VertexId],
                gone: Set[VertexId]) -> Optional[MultiLevelDS]:
        """g's stack, spliced into the held instance: `part`, the
        components of g that hold a changed vertex, preprocessed, and
        `gone`, the held graph's vertices that g lacks, dropped.  None when
        the part's level count differs from the held instance's, or when
        the part fails to preprocess."""
        held = self.held
        if not part and not gone:
            return held
        try:
            new = preprocess_multi_level(g.restrict(part), self.sched)
        except RejectedOp:
            return None     # the full rebuild raises if it must
        if new.level_count() != held.level_count():
            return None
        return splice_multi_level(held, part | gone, new)

    def clone(self, inst: MultiLevelDS) -> MultiLevelDS:
        # Every instance is read-only: batch_update builds a new one that
        # shares what it leaves unchanged with the held one, and
        # engine_query works on copies of the queried component.  So the
        # held instance, and every instance served, stay as built.
        return inst


def _flat_schedule(c: int, n_cap: int) -> ParamSchedule:
    """Desk schedule whose conductance floor sits below every component
    conductance any simple graph on n_cap vertices can reach after degree
    reduction, so preprocessing always certifies whole components."""
    edges_cap = max(n_cap * (n_cap - 1) // 2, 1)
    volume_cap = 2 * edges_cap * (2 * c + 3)
    n_image = n_cap + 2 * edges_cap
    return make_schedule(c, max(n_image, 2), "desk", {
        "phi": Fraction(1, 4 * volume_cap * volume_cap),
        "n_max": n_image,
    })


@dataclass
class Engine:
    c: int
    reduction: ReductionImage
    scheduler: Scheduler
    schedule: ParamSchedule
    n_cap: int                  # the vertex count the schedule certifies
    current: MultiLevelDS
    query_stats: List[Dict[str, int]] = field(default_factory=list)

    def fingerprint(self) -> Tuple:
        """Test oracle: the engine's state; a query leaves it unchanged."""
        return (tuple(sorted(self.reduction.simple.edge_items())),
                tuple(sorted(self.reduction.multigraph.edge_items())),
                self.current.fingerprint(),
                self.scheduler.now,
                self.scheduler.impl.steps)


def engine_preprocess(g: MultiGraph, c: int,
                      n_cap: Optional[int] = None) -> Engine:
    if c < 1:
        raise RejectedOp("engine", f"c must be >= 1, got {c}")
    n_cap = max(n_cap or 0, g.vertex_count(), 2)
    sched = _flat_schedule(c, n_cap)
    reduction = degree_reduce(g, c)
    xi, w = 1, 12
    scheduler = Scheduler(StackDS(sched), reduction.multigraph, xi, w)
    return Engine(c, reduction, scheduler, sched, n_cap,
                  scheduler.impl.clone(scheduler._pinned.inst))


def engine_update(e: Engine, op: UpdateOp) -> None:
    """Apply one simple-graph edge op: translate it to the constant-size
    image sequence and feed that, op by op, through the scheduler.  An
    insert is refused before any state changes when it is a self-loop, has
    an id outside the 32-bit range or would exceed n_cap."""
    seq: UpdateSeq = []
    if isinstance(op, (InsertEdge, DeleteEdge)):
        if isinstance(op, InsertEdge):
            if op.u == op.v:
                raise RejectedOp("engine", f"insert ({op.u},{op.v}) is a "
                                 f"self-loop")
            gadget_id(op.u, op.v)   # refuses an id outside the 32-bit range
            simple = e.reduction.simple
            new = [v for v in dict.fromkeys((op.u, op.v))
                   if not simple.has_vertex(v)]
            if simple.vertex_count() + len(new) > e.n_cap:
                raise RejectedOp("engine", f"insert ({op.u},{op.v}) would "
                                 f"exceed the certified {e.n_cap} vertices")
            for v in new:
                seq.extend(e.reduction.add_original_vertex(v))
        seq.extend(e.reduction.reduce_update(op))
    else:
        raise RejectedOp("engine", f"unsupported op {op!r}")
    e.current = e.scheduler.step(CompositeOp(tuple(seq)))


_ATTACH_A = -1   # v':  pendant forcing v_{u,u} into End(boundary)
_ATTACH_B = -2   # v'': pendant forcing v_{w,w} into End(boundary)


def engine_query(e: Engine, u: VertexId, w: VertexId) -> bool:
    """True iff u and w are c-edge connected in the tracked simple graph.

    Anchors in different components of the image are not even 1-edge
    connected, so the answer is then False at once.  Otherwise the query
    copies every level restricted to the anchors' component C (only the
    layers the update reads, see update_layer_indices), attaches one
    pendant vertex to each anchor with multiplicity c+1, pushes the four-op
    sequence through the copies, applies the final emitted sequence to the
    top sparsifier of C and answers by brute force on that small graph.
    Every edge of every level lies inside one component of the image, and
    every stage of the update works per component, so the copies emit the
    sequences that copies of the whole levels would (see
    CutPartitionDS.restrict).  The copies are discarded, so the engine state
    is untouched.

    C is found without a walk when level 0's layer 0 is one tree: its
    forest spans it with n - 1 edges, for n the vertices of the image, and
    layer 0 is a spanning subgraph of the image, so the image is connected
    and C is all of it.  Otherwise C is walked from u's anchor.  The copies'
    own components are read off their forests too (see
    cut_partition_update and update_partition)."""
    if not (e.reduction.simple.has_vertex(u) and
            e.reduction.simple.has_vertex(w)):
        raise RejectedOp("engine-query", f"vertex {u} or {w} absent")
    if u == w:
        return True
    mds = e.current
    au, aw = e.reduction.anchor(u), e.reduction.anchor(w)
    seq: UpdateSeq = [InsertVertex(_ATTACH_A), InsertVertex(_ATTACH_B),
                      InsertEdge(au, _ATTACH_A, e.c + 1),
                      InsertEdge(aw, _ATTACH_B, e.c + 1)]
    g = mds.graph
    if len(mds.levels[0].layers[0].forest) == g.vertex_count() - 1:
        comp = g.vertices
    else:
        comp = component_of(g, au)
    if aw not in comp:
        e.query_stats.append({"levels": len(mds.levels), "h_vertices": 0,
                              "h_edges": 0, "expansion": (len(seq),)})
        return False
    phi = e.schedule.phi_at(mds.round + 1)
    expansion = [len(seq)]
    levels = [ods.restrict(comp, update_layer_indices(ods.params.c))
              for ods in mds.levels]
    top = build_sparsifier(levels[-1])
    for ods in levels:
        _, seq = cut_partition_update(ods, seq, phi)
        expansion.append(len(seq))
    h = apply_seq(top, seq)
    if not (h.has_vertex(au) and h.has_vertex(aw)):
        raise RejectedOp("engine-query",
                         f"anchor missing from final graph for ({u},{w})")
    e.query_stats.append({"levels": len(mds.levels),
                          "h_vertices": h.vertex_count(),
                          "h_edges": h.distinct_edge_count(),
                          "expansion": tuple(expansion)})
    return offline_oracle(h, au, aw, e.c)
