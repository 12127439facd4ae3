"""Dynamic spanning forest, superedge contraction, and the queryable graph
data structure GraphDS.

GraphDS wraps a multigraph plus a terminal set, maintains a spanning forest of
the simple view, and reads off the terminal contraction of the forest:
connecting paths between terminals are compressed into superedges whose
endpoints are terminals or branch vertices (forest degree >= 3 within the
pruned Steiner forest).  contracted_diff() of two contractions read before
and after a run of updates is the exact update sequence that transforms the
one into the other.

It keeps the graph, the terminals and the forest, and nothing derived from
them but the contraction, which is built when first read after a change.
The forest spans every component of the graph with one tree, so the graph
has vertex_count - len(forest) components, read in O(1).  touched_components
answers from that count, and walks the graph (cutprimitives) only when the
count leaves the answer open.

An edge op walks the forest on the smaller side only: the trees of its two
ends are searched in lockstep until one search runs out (the balanced search
of Even and Shiloach, JACM 1981), so it reads about as much of the forest as
the smaller tree holds, not the whole component.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .cutprimitives import components, touched_components
from .errors import RejectedOp
from .multigraph import (
    DeleteEdge, DeleteVertex, EdgeKey, InsertEdge, InsertVertex, MultiGraph,
    UpdateSeq, VertexId, apply_update, edge_key,
)


@dataclass(frozen=True)
class InsertTerminal:
    v: VertexId


@dataclass(frozen=True)
class DeleteTerminal:
    v: VertexId


DsOp = object  # UpdateOp | InsertTerminal | DeleteTerminal


def contracted_diff(old: MultiGraph, new: MultiGraph) -> UpdateSeq:
    """Ops (delete edges, delete vertices, insert vertices, insert edges)
    turning `old` into `new`; replayable as a valid sequence."""
    seq: UpdateSeq = []
    for u, v in old.edge_keys():
        if not new.has_edge(u, v):
            seq.append(DeleteEdge(u, v))
    for v in old.vertex_list():
        if not new.has_vertex(v):
            seq.append(DeleteVertex(v))
    for v in new.vertex_list():
        if not old.has_vertex(v):
            seq.append(InsertVertex(v))
    for u, v in new.edge_keys():
        if not old.has_edge(u, v):
            seq.append(InsertEdge(u, v, 1))
    return seq


class GraphDS:
    """Dynamic graph with terminals, a spanning forest, and the forest's
    terminal contraction.

    It serves the layers of a cut-partition level and the copies of them,
    restricted to the queried component, that a query updates.  A witness
    layer with no witness edges is the same object as the layer before
    (see cut_partition_preprocess)."""

    def __init__(self, graph: MultiGraph, terminals=()):
        self.g = graph
        self.terminals: Set[VertexId] = set(terminals)
        for t in self.terminals:
            if not graph.has_vertex(t):
                raise RejectedOp("graphds-init", f"terminal {t} absent")
        self.forest: Set[EdgeKey] = set()
        self._build_forest()
        self._contracted: Optional[MultiGraph] = None

    # -- forest -----------------------------------------------------------
    def _build_forest(self) -> None:
        seen: Set[VertexId] = set()
        for root in self.g.vertex_list():
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in self.g.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        self.forest.add(edge_key(u, v))
                        queue.append(v)

    def _forest_side(self, x: VertexId, banned: Optional[EdgeKey]
                     ) -> Set[VertexId]:
        """Test oracle: vertices reachable from x in the forest avoiding
        `banned` (x's whole tree when it is None): a walk over g's adjacency
        that follows forest edges only, so it stays in x's tree."""
        side = {x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for v in self.g.adjacent(u):
                if v in side:
                    continue
                e = edge_key(u, v)
                if e == banned or e not in self.forest:
                    continue
                side.add(v)
                queue.append(v)
        return side

    def _smaller_tree(self, u: VertexId, v: VertexId
                      ) -> Optional[Set[VertexId]]:
        """The forest tree of u or of v that has fewer vertices (u's on a
        tie), or None when u and v are in one tree.  Two walks over g's
        adjacency that follow forest edges only, one from u and one from v,
        take one vertex each in turn; the first to run out has found its
        whole tree, and walks that meet share one."""
        u_side, v_side = {u}, {v}
        walks = ((u_side, [u], v_side), (v_side, [v], u_side))
        while True:
            for side, stack, other in walks:
                x = stack.pop()
                for y in self.g.adjacent(x):
                    if y in side or edge_key(x, y) not in self.forest:
                        continue
                    if y in other:
                        return None
                    side.add(y)
                    stack.append(y)
                if not stack:
                    return side

    def touched_components(self, xs: Iterable[VertexId]
                           ) -> List[Tuple[Set[VertexId], Set[VertexId]]]:
        """What cutprimitives.touched_components(self.g, xs) returns: each
        component of g that holds a vertex of xs, with the vertices of xs
        it holds, in the order of the components' least vertices.

        The forest spans every component of g with one tree, so g has
        vertex_count - len(forest) components.  Each isolated vertex of xs
        is one of them.  When at most one is left besides those, and xs
        holds a vertex that is not isolated, that vertex's component is the
        one left, and it holds every vertex of g but the isolated ones of
        xs: so no walk is needed.  Otherwise g is walked from xs."""
        g = self.g
        left = set(xs)
        alone = {x for x in left if g.is_isolated(x)}
        if g.vertex_count() - len(self.forest) - len(alone) > 1:
            return touched_components(g, left)
        out = [({x}, {x}) for x in alone]
        if len(left) > len(alone):
            out.append((g.vertices - alone, left - alone))
        out.sort(key=lambda item: min(item[0]))
        return out

    # -- contraction ------------------------------------------------------
    def contracted(self) -> MultiGraph:
        """The superedge graph; built on first read after a change, and
        never mutated afterwards, so an earlier read stays a valid
        snapshot for contracted_diff."""
        if self._contracted is None:
            self._contracted = self._compute_contraction()
        return self._contracted

    def _compute_contraction(self) -> MultiGraph:
        if not self.terminals:
            # pruning non-terminal leaves empties every tree
            return MultiGraph()
        adj: Dict[VertexId, List[VertexId]] = {v: [] for v in self.g.vertices}
        for u, v in self.forest:
            adj[u].append(v)
            adj[v].append(u)
        sdeg = {v: len(nbrs) for v, nbrs in adj.items()}
        alive = set(self.g.vertices)
        # prune non-terminal leaves (and isolated non-terminals)
        queue = deque(v for v in alive
                      if sdeg[v] <= 1 and v not in self.terminals)
        while queue:
            v = queue.popleft()
            if v not in alive:
                continue
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    sdeg[w] -= 1
                    if sdeg[w] <= 1 and w not in self.terminals:
                        queue.append(w)
        # remaining degree within the pruned forest
        def alive_neighbors(v):
            return [w for w in adj[v] if w in alive]
        nodes = set()
        for v in alive:
            d = len(alive_neighbors(v))
            if v in self.terminals and d >= 1:
                nodes.add(v)
            elif d >= 3:
                nodes.add(v)
        cg = MultiGraph()
        for v in sorted(nodes):
            cg.add_vertex(v)
        visited_edges: Set[EdgeKey] = set()
        for u in sorted(nodes):
            for first in sorted(alive_neighbors(u)):
                e0 = edge_key(u, first)
                if e0 in visited_edges:
                    continue
                visited_edges.add(e0)
                prev, cur = u, first
                while cur not in nodes:
                    nxt = [w for w in alive_neighbors(cur) if w != prev]
                    assert len(nxt) == 1, "interior path vertex must have degree 2"
                    visited_edges.add(edge_key(cur, nxt[0]))
                    prev, cur = cur, nxt[0]
                if not cg.has_edge(u, cur):
                    cg.add_edge(u, cur, 1)
        return cg

    # -- updates ----------------------------------------------------------
    def ds_update(self, op: DsOp) -> None:
        """Apply one op; contracted() read before and after a run of ops
        gives the change to the contraction (contracted_diff).

        An inserted edge joins the forest when its ends are in different
        trees.  A deleted forest edge is replaced by the least edge (by
        edge_key) crossing between the two trees it leaves, if any.  That
        edge is found from the smaller tree: the old tree spanned its
        component, so every edge leaving either new tree enters the other,
        both have the same crossing edges, and the forest is the one a scan
        of either side gives."""
        if isinstance(op, InsertTerminal):
            if not self.g.has_vertex(op.v):
                raise RejectedOp("ds-update", f"vertex {op.v} absent")
            self.terminals.add(op.v)
        elif isinstance(op, DeleteTerminal):
            self.terminals.discard(op.v)
        elif isinstance(op, DeleteVertex) and op.v in self.terminals:
            raise RejectedOp("ds-update", f"vertex {op.v} still a terminal")
        else:
            apply_update(self.g, op)
            # the forest lacks the new edge yet, so the walks see the trees
            # from before the insert
            if isinstance(op, InsertEdge):
                if self._smaller_tree(op.u, op.v) is not None:
                    self.forest.add(edge_key(op.u, op.v))
            elif isinstance(op, DeleteEdge):
                e = edge_key(op.u, op.v)
                if e in self.forest:
                    self.forest.discard(e)
                    side = self._smaller_tree(op.u, op.v)
                    repl = min((edge_key(a, b) for a in side
                                for b in self.g.adjacent(a) if b not in side),
                               default=None)
                    if repl is not None:
                        self.forest.add(repl)
        self._contracted = None

    @classmethod
    def from_forest(cls, graph: MultiGraph, terminals: Set[VertexId],
                    forest: Set[EdgeKey]) -> "GraphDS":
        """A GraphDS over parts that already agree: `forest` spans the
        simple view of `graph` and `terminals` are vertices of it.  Takes
        the three objects as they are, without copying."""
        ds = cls.__new__(cls)
        ds.g = graph
        ds.terminals = terminals
        ds.forest = forest
        ds._contracted = None
        return ds

    def clone(self) -> "GraphDS":
        return GraphDS.from_forest(self.g.copy(), set(self.terminals),
                                   set(self.forest))

    def restrict(self, verts: Set[VertexId]) -> "GraphDS":
        """A copy on the vertices of `verts` that g has, which must be
        closed under adjacency in g.  Every tree of the forest then lies
        inside or outside them, so the copy keeps the forest edges of its
        own graph: all of them when it holds every vertex, else the ones a
        walk of its adjacency finds in the forest."""
        g = self.g.restrict(verts)
        forest = self.forest
        if g.vertex_count() == self.g.vertex_count():
            kept = set(forest)
        else:
            kept = {e for e in g.pairs() if e in forest}
        return GraphDS.from_forest(g, self.terminals & verts, kept)

    def fingerprint(self) -> Tuple:
        """Test oracle: the structure's state, compared by value."""
        return (tuple(sorted((e, m) for e, m in self.g.edge_items())),
                tuple(self.g.vertex_list()),
                tuple(sorted(self.terminals)),
                tuple(sorted(self.forest)))

    # -- invariant checking (tests) ---------------------------------------
    def check_forest(self) -> None:
        """Test oracle: the forest spans every component of g and is
        acyclic."""
        for u, v in self.forest:
            assert self.g.has_edge(u, v), "forest edge missing from graph"
        # a tree of the forest spans each component, with one edge fewer
        # than it has vertices, so no edge closes a cycle
        for comp in components(self.g):
            assert self._forest_side(min(comp), None) == comp, \
                "forest does not span a component"
            assert sum(u in comp for u, _ in self.forest) == len(comp) - 1
