"""Multigraph data model, the update-operation vocabulary, and the
constant-degree reduction gadget.

A multigraph stores vertices plus edges keyed by unordered vertex pair with a
positive integer multiplicity.  No self-loops.  Deleting an edge removes all
of its multiplicity at once.

Copies share adjacency until they write it (copy-on-write per vertex, the
node copying of Driscoll, Sarnak, Sleator and Tarjan, JCSS 1989).  Each
graph records the vertices whose neighbour dict it owns; None means it owns
them all, as a graph that was never copied does.  copy(), restrict() and
splice_graph put the inner dicts into the new graph as they are, and both
sides give up ownership of what they share, so a write to either side after
a copy never shows in the other.  add_edge and remove_edge copy a vertex's
dict before their first write to it, and add_vertex owns the dict it makes.
A copied dict keeps its insertion order, so every walk over a copy reads
neighbours in the order a walk over the source does.

A graph that copy() made also keeps that method's modification log: a weak
reference to the graph it was copied from, and the vertices it has written
since.  A write is the first write of a vertex's dict (the copy in
_unshare), add_vertex and remove_vertex; later writes to a dict the graph
owns are writes to a logged vertex.  So while the source is not written,
every vertex outside the log has the source's adjacency (see log_since).
A graph that copy() did not make carries no log: splice_graph's results
and restrict()'s copies of part of a graph among them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, ItemsView, Iterable, Iterator, KeysView,
                    List, Optional, Set, Tuple, Union)

from .errors import RejectedOp

VertexId = int
EdgeKey = Tuple[int, int]


def edge_key(u: VertexId, v: VertexId) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


class MultiGraph:
    """Vertices plus unordered-pair edges with multiplicity >= 1."""

    __slots__ = ("_adj", "_distinct_edges", "_own", "_log", "_source",
                 "__weakref__")

    def __init__(self) -> None:
        self._adj: Dict[VertexId, Dict[VertexId, int]] = {}
        self._distinct_edges = 0
        # the vertices whose neighbour dict this graph owns; None: all
        self._own: Optional[Set[VertexId]] = None
        # on a graph copy() made: the vertices written since, and a weak
        # reference to the graph it was copied from; None on any other
        self._log: Optional[Set[VertexId]] = None
        self._source: Optional[weakref.ref] = None

    # -- queries ----------------------------------------------------------
    @property
    def vertices(self) -> Set[VertexId]:
        return set(self._adj)

    def vertex_list(self) -> List[VertexId]:
        return sorted(self._adj)

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._adj

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return u in self._adj and v in self._adj[u]

    def multiplicity(self, u: VertexId, v: VertexId) -> int:
        if not self.has_edge(u, v):
            return 0
        return self._adj[u][v]

    def neighbors(self, v: VertexId) -> List[VertexId]:
        return sorted(self._adj[v])

    def adjacent(self, v: VertexId) -> KeysView[VertexId]:
        """The distinct neighbors of v, in no fixed order; a live view, so
        the graph must not change while it is read (a write may also
        replace the viewed dict with a copy)."""
        return self._adj[v].keys()

    def incident(self, v: VertexId) -> ItemsView[VertexId, int]:
        """(neighbor, multiplicity) for each distinct neighbor of v, in no
        fixed order; a live view, like adjacent()."""
        return self._adj[v].items()

    def degree(self, v: VertexId) -> int:
        """Number of distinct neighbors."""
        return len(self._adj[v])

    def vertex_count(self) -> int:
        return len(self._adj)

    def distinct_edge_count(self) -> int:
        return self._distinct_edges

    def edge_items(self) -> Iterator[Tuple[EdgeKey, int]]:
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v), self._adj[u][v]

    def edge_keys(self) -> List[EdgeKey]:
        return [k for k, _ in self.edge_items()]

    def pairs(self) -> Iterator[EdgeKey]:
        """Every distinct edge once as (u, v) with u < v, in no fixed order."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield u, v

    def is_isolated(self, v: VertexId) -> bool:
        return not self._adj[v]

    # -- mutation ---------------------------------------------------------
    def add_vertex(self, v: VertexId) -> None:
        if v in self._adj:
            raise RejectedOp("insert-vertex", f"vertex {v} already present")
        self._adj[v] = {}
        if self._own is not None:
            self._own.add(v)
            if self._log is not None:
                self._log.add(v)

    def remove_vertex(self, v: VertexId) -> None:
        if v not in self._adj:
            raise RejectedOp("delete-vertex", f"vertex {v} absent")
        if self._adj[v]:
            raise RejectedOp("delete-vertex", f"vertex {v} not isolated")
        del self._adj[v]
        if self._log is not None:
            self._log.add(v)

    def add_edge(self, u: VertexId, v: VertexId, mult: int = 1) -> None:
        if u == v:
            raise RejectedOp("insert-edge", "self-loop rejected")
        if mult < 1:
            raise RejectedOp("insert-edge", f"multiplicity {mult} < 1")
        if u not in self._adj or v not in self._adj:
            raise RejectedOp("insert-edge", f"endpoint of ({u},{v}) absent")
        if v in self._adj[u]:
            raise RejectedOp("insert-edge", f"edge ({u},{v}) already present")
        own = self._own
        if own is not None and (u not in own or v not in own):
            self._unshare(u, v)
        self._adj[u][v] = mult
        self._adj[v][u] = mult
        self._distinct_edges += 1

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Delete the edge entirely, regardless of multiplicity."""
        if not self.has_edge(u, v):
            raise RejectedOp("delete-edge", f"edge ({u},{v}) absent")
        own = self._own
        if own is not None and (u not in own or v not in own):
            self._unshare(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._distinct_edges -= 1

    def _unshare(self, u: VertexId, v: VertexId) -> None:
        """Copy the neighbour dicts of u and v that this graph does not
        own, own them and log them.  Its callers test ownership inline
        first, so a write to dicts the graph owns costs no call."""
        own, log = self._own, self._log
        for x in (u, v):
            if x not in own:
                self._adj[x] = dict(self._adj[x])
                own.add(x)
                if log is not None:
                    log.add(x)

    # -- misc -------------------------------------------------------------
    def copy(self) -> "MultiGraph":
        """A copy that shares every neighbour dict until either side
        writes it; both may be mutated.  The copy logs its writes from
        now on (see log_since)."""
        g = MultiGraph()
        g._adj = dict(self._adj)
        g._distinct_edges = self._distinct_edges
        g._own, self._own = set(), set()
        g._log, g._source = set(), weakref.ref(self)
        return g

    def log_since(self, source: "MultiGraph") -> Optional[Set[VertexId]]:
        """The vertices this graph has written since copy() made it from
        `source`, or None when copy() did not make it from that graph.
        While source is not written, every other vertex has source's
        adjacency, and every vertex of source this graph lacks is in the
        log.  The source is held by a weak reference, not by its id, so a
        graph that reuses a dead source's id never matches."""
        if self._source is None or self._source() is not source:
            return None
        return self._log

    def restrict(self, verts: Set[VertexId]) -> "MultiGraph":
        """A copy of the graph on the vertices of the set `verts` it has,
        where those vertices are closed under adjacency (a union of
        components).  Shares their adjacency dicts as they are, like
        copy(): nothing is filtered or sorted, unlike induced_subgraph, and
        both graphs may be mutated."""
        src = self._adj
        if len(verts) >= len(src) and src.keys() <= verts:
            return self.copy()
        g = MultiGraph()
        g._adj = {v: src[v] for v in verts if v in src}
        g._distinct_edges = sum(map(len, g._adj.values())) // 2
        g._own = set()
        if self._own is None:
            self._own = src.keys() - g._adj.keys()
        else:
            self._own -= g._adj.keys()
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("MultiGraph is unhashable")

    def __repr__(self) -> str:
        return (f"MultiGraph(n={self.vertex_count()}, "
                f"m={self.distinct_edge_count()})")

    @classmethod
    def from_edges(cls, vertices, edges) -> "MultiGraph":
        """Build from an iterable of vertices and (u, v[, mult]) tuples."""
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for e in edges:
            if len(e) == 2:
                u, v, mult = e[0], e[1], 1
            else:
                u, v, mult = e
            for w in (u, v):
                if not g.has_vertex(w):
                    g.add_vertex(w)
            g.add_edge(u, v, mult)
        return g


def induced_subgraph(g: MultiGraph, vertices) -> MultiGraph:
    """g restricted to `vertices`; built in the order of g.edge_items(),
    walking only the kept vertices' adjacency."""
    keep = set(vertices)
    order = sorted(keep)
    sub = MultiGraph()
    adj = sub._adj
    for v in order:
        if v not in g._adj:
            raise RejectedOp("induced-subgraph", f"vertex {v} absent")
        adj[v] = {}
    count = 0
    for u in order:
        nbrs = g._adj[u]
        for v in sorted(nbrs):
            if u < v and v in keep:
                adj[u][v] = adj[v][u] = nbrs[v]
                count += 1
    sub._distinct_edges = count
    return sub


def splice_graph(base: MultiGraph, drop, part: MultiGraph) -> MultiGraph:
    """base without the vertices `drop`, plus `part`.  `drop` must be
    vertices of base closed under adjacency in base, and hold every vertex
    of part that base has; it may share vertices with part, as every splice
    of a rebuilt component back into its graph does.  Then no kept vertex
    of base is a vertex of part or a neighbour of a dropped one, so the
    dropped vertices' degrees count twice the edges removed.  The result
    shares the kept vertices' adjacency with base and part's adjacency with
    part until one of them writes it, so all three may be mutated
    afterwards (see the module docstring)."""
    adj = dict(base._adj)
    dropped = sum(len(adj.pop(v)) for v in drop)
    adj.update(part._adj)
    g = MultiGraph()
    g._adj = adj
    g._distinct_edges = (base._distinct_edges - dropped // 2
                         + part._distinct_edges)
    g._own, base._own, part._own = set(), set(), set()
    return g


def changed_vertices(g: MultiGraph, base: MultiGraph,
                     among: Optional[Iterable[VertexId]] = None
                     ) -> Tuple[Set[VertexId], Set[VertexId]]:
    """(changed, gone): the vertices of g whose adjacency differs from
    base's, those base lacks included, and the vertices of base g lacks.

    `among`, when given, must hold every vertex of g whose adjacency
    differs from base's and every vertex of base that g lacks; then only
    those vertices are compared, and `gone` is read off them too.  The
    log of g's writes since copy() made it from a graph that equals base
    by value, and that nobody wrote since, is such a set (see
    MultiGraph.log_since).  Without it every vertex of g or base is.

    A vertex whose neighbour dict is the same object in both graphs has
    the same adjacency in both, since a dict equals itself; only the other
    vertices are compared by value.  So the result is the by-value one,
    and when g and base come from one lineage of copies (copy-on-write,
    see the module docstring), the value comparisons are those of the
    dicts written since the two graphs parted."""
    old, new = base._adj, g._adj
    if among is None:
        among = old.keys() | new.keys()
    changed, gone = set(), set()
    for v in among:
        nbrs = new.get(v)
        if nbrs is None:
            if v in old:
                gone.add(v)
        elif (was := old.get(v)) is not nbrs and was != nbrs:
            changed.add(v)
    return changed, gone


def simple_view(g: MultiGraph) -> MultiGraph:
    """Test oracle: same vertices and distinct edges, all multiplicities
    1 (the engine's expander steps read distinct adjacency only)."""
    s = MultiGraph()
    for v in g.vertex_list():
        s.add_vertex(v)
    for (u, v), _ in g.edge_items():
        s.add_edge(u, v, 1)
    return s


# -- update operations ----------------------------------------------------

@dataclass(frozen=True)
class InsertEdge:
    u: VertexId
    v: VertexId
    mult: int = 1


@dataclass(frozen=True)
class DeleteEdge:
    u: VertexId
    v: VertexId


@dataclass(frozen=True)
class InsertVertex:
    v: VertexId


@dataclass(frozen=True)
class DeleteVertex:
    v: VertexId


@dataclass(frozen=True)
class CompositeOp:
    """Several ops applied as one unit of an op stream.  `names` is the set
    of vertices its ops name, nested CompositeOps included, found once when
    the op is made; it takes no part in equality, hashing or repr."""
    ops: Tuple["UpdateOp", ...]
    names: FrozenSet[VertexId] = field(init=False, compare=False,
                                       repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", frozenset(name_set(self.ops)))


UpdateOp = Union[InsertEdge, DeleteEdge, InsertVertex, DeleteVertex,
                 CompositeOp]
UpdateSeq = List[UpdateOp]


def apply_update(g: MultiGraph, op: UpdateOp) -> MultiGraph:
    """Apply one update op in place; precondition violations raise RejectedOp."""
    if isinstance(op, InsertEdge):
        g.add_edge(op.u, op.v, op.mult)
    elif isinstance(op, DeleteEdge):
        g.remove_edge(op.u, op.v)
    elif isinstance(op, InsertVertex):
        g.add_vertex(op.v)
    elif isinstance(op, DeleteVertex):
        g.remove_vertex(op.v)
    elif isinstance(op, CompositeOp):
        for sub in op.ops:
            apply_update(g, sub)
    else:
        raise RejectedOp("apply-update", f"unknown op {op!r}")
    return g


def name_set(seq: Iterable[UpdateOp]) -> Set[VertexId]:
    """The vertices the ops of seq name, in no fixed order.  A CompositeOp
    gives the names it recorded when it was made, so its ops are not
    walked again."""
    out: Set[VertexId] = set()
    for op in seq:
        if isinstance(op, CompositeOp):
            out |= op.names
        elif isinstance(op, (InsertEdge, DeleteEdge)):
            out.add(op.u)
            out.add(op.v)
        else:
            out.add(op.v)
    return out


def named_vertices(seq: UpdateSeq) -> List[VertexId]:
    """name_set(seq), sorted."""
    return sorted(name_set(seq))


def apply_seq(g: MultiGraph, seq: UpdateSeq) -> MultiGraph:
    for op in seq:
        apply_update(g, op)
    return g


# -- degree reduction ------------------------------------------------------

_GADGET_SHIFT = 32


def gadget_id(u: VertexId, w: VertexId) -> VertexId:
    """Deterministic 64-bit id for the gadget vertex tracking edge slot (u, w)."""
    if u < 0 or w < 0 or u >= (1 << _GADGET_SHIFT) or w >= (1 << _GADGET_SHIFT):
        raise RejectedOp("gadget-id", f"vertex id out of 32-bit range: {u},{w}")
    return (u << _GADGET_SHIFT) | w


class ReductionImage:
    """Constant-degree multigraph image of a tracked simple graph.

    Each original vertex u becomes a path of gadget vertices v_{u,w} (one per
    incident edge, in insertion order) anchored at v_{u,u}; path edges carry
    multiplicity c+1 and each original edge (u, w) becomes one multiplicity-1
    edge (v_{u,w}, v_{w,u}).  Every gadget vertex has at most 3 distinct
    neighbors, and min(c, edge connectivity) is preserved between anchors.
    """

    def __init__(self, c: int):
        if c < 1:
            raise RejectedOp("degree-reduce", f"c must be >= 1, got {c}")
        self.c = c
        self.simple = MultiGraph()      # tracked original simple graph
        self.multigraph = MultiGraph()  # the reduced image
        # per-vertex gadget path as a linked list over neighbor slots;
        # slot key is the neighbor w (anchor slot key is u itself)
        self._succ: Dict[VertexId, Dict[VertexId, Optional[VertexId]]] = {}
        self._pred: Dict[VertexId, Dict[VertexId, Optional[VertexId]]] = {}
        self._tail: Dict[VertexId, VertexId] = {}

    def anchor(self, u: VertexId) -> VertexId:
        return gadget_id(u, u)

    def neighbor_order(self, u: VertexId) -> List[VertexId]:
        """Test oracle: the neighbours on u's gadget path, anchor first."""
        out = []
        w = self._succ[u][u]
        while w is not None:
            out.append(w)
            w = self._succ[u][w]
        return out

    # -- construction -----------------------------------------------------
    def add_original_vertex(self, u: VertexId) -> UpdateSeq:
        if self.simple.has_vertex(u):
            raise RejectedOp("reduce-update", f"vertex {u} already tracked")
        self.simple.add_vertex(u)
        self._succ[u] = {u: None}
        self._pred[u] = {u: None}
        self._tail[u] = u
        seq: UpdateSeq = [InsertVertex(self.anchor(u))]
        apply_seq(self.multigraph, seq)
        return seq

    def insert_edge(self, u: VertexId, w: VertexId) -> UpdateSeq:
        if not (self.simple.has_vertex(u) and self.simple.has_vertex(w)):
            raise RejectedOp("reduce-update", f"endpoint of ({u},{w}) absent")
        if self.simple.has_edge(u, w):
            raise RejectedOp("reduce-update", f"edge ({u},{w}) already present")
        self.simple.add_edge(u, w, 1)
        seq: UpdateSeq = []
        for a, b in ((u, w), (w, u)):
            tail_slot = self._tail[a]
            seq.append(InsertVertex(gadget_id(a, b)))
            seq.append(InsertEdge(gadget_id(a, tail_slot) if tail_slot != a
                                  else self.anchor(a),
                                  gadget_id(a, b), self.c + 1))
            self._succ[a][tail_slot] = b
            self._pred[a][b] = tail_slot
            self._succ[a][b] = None
            self._tail[a] = b
        seq.append(InsertEdge(gadget_id(u, w), gadget_id(w, u), 1))
        apply_seq(self.multigraph, seq)
        return seq

    def delete_edge(self, u: VertexId, w: VertexId) -> UpdateSeq:
        if not self.simple.has_edge(u, w):
            raise RejectedOp("reduce-update", f"edge ({u},{w}) absent")
        self.simple.remove_edge(u, w)
        seq: UpdateSeq = [DeleteEdge(gadget_id(u, w), gadget_id(w, u))]
        for a, b in ((u, w), (w, u)):
            slot = gadget_id(a, b)
            p = self._pred[a][b]
            s = self._succ[a][b]
            pv = self.anchor(a) if p == a else gadget_id(a, p)
            seq.append(DeleteEdge(pv, slot))
            if s is not None:
                seq.append(DeleteEdge(slot, gadget_id(a, s)))
                seq.append(InsertEdge(pv, gadget_id(a, s), self.c + 1))
            seq.append(DeleteVertex(slot))
            self._succ[a][p] = s
            if s is not None:
                self._pred[a][s] = p
            else:
                self._tail[a] = p
            del self._succ[a][b]
            del self._pred[a][b]
        apply_seq(self.multigraph, seq)
        return seq

    def reduce_update(self, op: UpdateOp) -> UpdateSeq:
        """Translate a simple-graph edge op into an O(1) multigraph sequence."""
        if isinstance(op, InsertEdge):
            return self.insert_edge(op.u, op.v)
        if isinstance(op, DeleteEdge):
            return self.delete_edge(op.u, op.v)
        raise RejectedOp("reduce-update", f"unsupported op {op!r}")

    # -- invariant checking -----------------------------------------------
    def check_invariants(self) -> None:
        """Test oracle: the image is the gadget of the tracked graph."""
        g = self.multigraph
        expect_vertices = set()
        for u in self.simple.vertex_list():
            expect_vertices.add(self.anchor(u))
            for w in self.simple.neighbors(u):
                expect_vertices.add(gadget_id(u, w))
        assert g.vertices == expect_vertices, "gadget vertex set mismatch"
        # one multiplicity-1 edge per original edge
        for (u, w), _ in self.simple.edge_items():
            assert g.multiplicity(gadget_id(u, w), gadget_id(w, u)) == 1
        # per-vertex gadget path with multiplicity c+1
        path_edges = 0
        for u in self.simple.vertex_list():
            order = self.neighbor_order(u)
            assert sorted(order) == self.simple.neighbors(u)
            prev = self.anchor(u)
            for w in order:
                cur = gadget_id(u, w)
                assert g.multiplicity(prev, cur) == self.c + 1
                prev = cur
                path_edges += 1
        # no extra edges
        assert g.distinct_edge_count() == \
            self.simple.distinct_edge_count() + path_edges
        for v in g.vertex_list():
            assert g.degree(v) <= 3, f"gadget vertex {v} has degree > 3"


def degree_reduce(g: MultiGraph, c: int) -> ReductionImage:
    """Build the reduction image of a simple graph (neighbor order sorted)."""
    img = ReductionImage(c)
    for v in g.vertex_list():
        img.add_original_vertex(v)
    for (u, v), mult in g.edge_items():
        if mult != 1:
            raise RejectedOp("degree-reduce", f"input not simple at ({u},{v})")
        img.insert_edge(u, v)
    return img
