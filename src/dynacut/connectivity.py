"""Top-level fully dynamic c-edge-connectivity engine and brute-force oracle."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .cutpartition import (build_sparsifier, cut_partition_update,
                           update_layer_indices)
from .cutprimitives import component_of
from .errors import RejectedOp
from .multigraph import (CompositeOp, DeleteEdge, InsertEdge, InsertVertex,
                         MultiGraph,
                         ReductionImage, UpdateOp, UpdateSeq, VertexId,
                         apply_seq, degree_reduce, induced_subgraph,
                         named_vertices)
from .multilevel import (MultiLevelDS, ParamSchedule, make_schedule,
                         preprocess_multi_level, splice_multi_level)
from .onlinebatch import Scheduler


def _capped_maxflow(g: MultiGraph, x: VertexId, y: VertexId, cap: int) -> int:
    """Max x-y flow with per-edge capacities min(multiplicity, cap), itself
    capped at cap.  At most cap augmentations."""
    res: Dict[Tuple[VertexId, VertexId], int] = {}
    for (u, v), mult in g.edge_items():
        w = min(mult, cap)
        res[(u, v)] = w
        res[(v, u)] = w
    flow = 0
    while flow < cap:
        parent: Dict[VertexId, VertexId] = {x: x}
        queue = deque([x])
        while queue and y not in parent:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in parent and res.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if y not in parent:
            break
        bottleneck = cap - flow
        v = y
        while v != x:
            u = parent[v]
            bottleneck = min(bottleneck, res[(u, v)])
            v = u
        v = y
        while v != x:
            u = parent[v]
            res[(u, v)] -= bottleneck
            res[(v, u)] += bottleneck
            v = u
        flow += bottleneck
    return flow


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

class StackDS:
    """Batchable wrapper over the sparsifier stack.  A batch rebuilds only
    the components it touches: it preprocesses the touched components of
    the post-batch graph and splices the result into the pre-batch stack,
    which gives the full rebuild exactly (see splice_multi_level).  It
    rebuilds the whole stack instead when the batch touches every
    component, when the part's level count differs from the stack's, or
    when the part alone fails to preprocess.  The desk schedules have no
    spare update rounds, so rebuilding is the deterministic batch rule; the
    round-consuming update path is what queries exercise."""

    def __init__(self, sched: ParamSchedule):
        self.sched = sched
        self.steps = 0

    def initialize(self, g: MultiGraph) -> MultiLevelDS:
        self.steps += g.vertex_count() + g.distinct_edge_count() + 1
        return preprocess_multi_level(g, self.sched)

    def batch_update(self, inst: MultiLevelDS, g_before: MultiGraph,
                     seq: UpdateSeq) -> MultiLevelDS:
        drop: Set[VertexId] = set()
        for v in named_vertices(seq):
            if g_before.has_vertex(v) and v not in drop:
                drop |= component_of(g_before, v)
        # Each op names the vertices whose edges it changes, and a touched
        # component that splits keeps a named vertex in every piece, so the
        # batch turns the touched components into the post-batch graph's
        # components that hold a named vertex.
        part_g = apply_seq(induced_subgraph(g_before, drop), seq)
        self.steps += len(seq)
        if len(drop) == g_before.vertex_count():
            return self.initialize(part_g)   # part_g is the whole graph
        self.steps += part_g.vertex_count() + part_g.distinct_edge_count()
        try:
            part = preprocess_multi_level(part_g, self.sched)
        except RejectedOp:
            part = None     # the full rebuild below raises if it must
        if part is not None and part.level_count() == inst.level_count():
            return splice_multi_level(inst, drop, part)
        return self.initialize(apply_seq(g_before.copy(), seq))

    def clone(self, inst: MultiLevelDS) -> MultiLevelDS:
        # batch_update builds a new instance that shares only what it
        # leaves unchanged, and engine_query works on copies of the queried
        # component, so no caller mutates a served instance.
        return inst

    def fingerprint(self, inst: MultiLevelDS) -> Tuple:
        return inst.fingerprint()


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
    image sequence and feed that, op by op, through the scheduler."""
    seq: UpdateSeq = []
    if isinstance(op, (InsertEdge, DeleteEdge)):
        if isinstance(op, InsertEdge):
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
    is untouched."""
    if not (e.reduction.simple.has_vertex(u) and
            e.reduction.simple.has_vertex(w)):
        raise RejectedOp("engine-query", f"vertex {u} or {w} absent")
    if u == w:
        return True
    sched = e.schedule
    mds = e.current
    au, aw = e.reduction.anchor(u), e.reduction.anchor(w)
    seq: UpdateSeq = [InsertVertex(_ATTACH_A), InsertVertex(_ATTACH_B),
                      InsertEdge(au, _ATTACH_A, e.c + 1),
                      InsertEdge(aw, _ATTACH_B, e.c + 1)]
    comp = component_of(mds.graph, au)
    if aw not in comp:
        e.query_stats.append({"levels": len(mds.levels), "h_vertices": 0,
                              "h_edges": 0, "expansion": (len(seq),)})
        return False
    target = sched.chain[mds.round + 1]
    phi = sched.phi_at(mds.round + 1)
    expansion = [len(seq)]
    levels = [ods.restrict(comp, update_layer_indices(ods.params.c))
              for ods in mds.levels]
    top = build_sparsifier(levels[-1], sched.gamma)
    for ods in levels:
        _, seq = cut_partition_update(ods, seq, phi, target, sched.t,
                                      sched.gamma, ods.params)
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
