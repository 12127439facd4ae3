"""Layered cut-partition data structure over an expander decomposition.

A CutPartitionDS holds the input multigraph plus a chain of layer graphs:
layer 0 is the graph restricted to expander clusters, and each deeper layer
removes a set of small-cut witness edges so that the final layer's
components form a partition whose boundary contains a minimum
terminal-separating cut-set for every small cut inside a cluster.

Two structure profiles exist: the plain profile with `c` layers, and the
pre-update profile with c^2+2c layers whose stronger parameter chain leaves
enough slack for `update_partition` to rebuild a plain structure after new
intercluster edges appear.  `build_sparsifier` contracts the final layer
into superedges and keeps intercluster edges verbatim.

A structure carries its own parameters: t, c and the (t_i, q_i) chain in
`params`, and the contraction multiplicity `gamma`.  cut_partition_preprocess
sets them, and refuses gamma <= c; every later stage reads them from the
structure it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .cutprimitives import CutSearch, components, touched_components
from .dynforest import DeleteTerminal, GraphDS, InsertTerminal, contracted_diff
from .errors import RejectedOp
from .expander import decremental_single_expander, expander_decomposition
from .multigraph import (
    DeleteEdge, DeleteVertex, EdgeKey, InsertEdge, InsertVertex, MultiGraph,
    UpdateOp, UpdateSeq, VertexId, apply_update, edge_key, induced_subgraph,
    named_vertices, splice_graph,
)
from .repair import _ends, initial_ia, repair_set


@dataclass(frozen=True)
class LayerParams:
    """Per-layer (t_i, q_i) chain for a strength-`c` structure.

    The plain profile has `c` layers and chain factor c+1; the strict
    profile has c^2+2c layers and chain factor ((c^2+2c)+2)^2, which is what
    update_partition consumes.
    """
    t: int
    c: int
    pairs: Tuple[Tuple[int, int], ...]
    strict: bool = False

    def __post_init__(self):
        n = self.layer_count()
        if len(self.pairs) != n:
            raise RejectedOp("layer-params",
                             f"expected {n} layers, got {len(self.pairs)}")
        if self.t < 1 or self.c < 1:
            raise RejectedOp("layer-params", "t and c must be positive")
        if self.t > self.pairs[0][0]:
            raise RejectedOp("layer-params", "need t <= t_1")
        factor = self.chain_factor()
        for i, (t_i, q_i) in enumerate(self.pairs):
            if t_i > q_i:
                raise RejectedOp("layer-params", f"need t_{i+1} <= q_{i+1}")
            if i + 1 < n and q_i * factor > self.pairs[i + 1][0]:
                raise RejectedOp(
                    "layer-params",
                    f"chain broken: q_{i+1}*{factor} > t_{i+2}")

    def layer_count(self) -> int:
        return self.c * self.c + 2 * self.c if self.strict else self.c

    def chain_factor(self) -> int:
        n = self.c * self.c + 2 * self.c
        return (n + 2) ** 2 if self.strict else self.c + 1

    def t_at(self, h: int) -> int:
        """t_h with the convention t_0 = t."""
        return self.t if h == 0 else self.pairs[h - 1][0]

    def q_at(self, h: int) -> int:
        return self.pairs[h - 1][1]


@dataclass
class CutPartitionDS:
    """The input graph and its layer chain, with the parameters they were
    built for: `params` holds t, c and the (t_i, q_i) chain, and `gamma`
    the contraction multiplicity, gamma > c.  The update and the
    sparsifier read them from here.

    Equal consecutive layers may be one shared GraphDS object, as
    cut_partition_preprocess and splice_partition build them, so a
    structure they return is read-only.  An in-place consumer
    (update_partition, and so cut_partition_update) takes clone() or
    restrict() first: both give every index its own copy."""
    g: MultiGraph                 # the input graph
    layers: List[GraphDS]         # layer graphs, each with its terminals
    params: LayerParams
    gamma: int

    def partition(self) -> List[Set[VertexId]]:
        """Test oracle: the expander clusters, the components of the
        layer-0 graph."""
        return components(self.layers[0].g)

    def cut_partition(self) -> List[Set[VertexId]]:
        """Test oracle: the refined partition, the components of the final
        layer's graph."""
        return components(self.layers[-1].g)

    def clone(self) -> "CutPartitionDS":
        return CutPartitionDS(self.g.copy(),
                              [ds.clone() for ds in self.layers],
                              self.params, self.gamma)

    def restrict(self, verts: Set[VertexId],
                 indices: Optional[Iterable[int]] = None
                 ) -> "CutPartitionDS":
        """A copy on the vertices of `verts` that g has, where verts is a
        union of components of g.  Every layer is a subgraph of g on g's
        vertices, so those vertices are closed under adjacency in every
        layer too, and each graph is a plain copy of their adjacency.
        Every stage of the structure works per component (see
        splice_partition), so the copy is what cut_partition_preprocess
        builds on those components, and an update whose ops name only
        vertices of verts or new ones emits the same sequence on it as on
        the whole structure.

        With `indices`, only the layers at those indices are copied; every
        other index keeps this structure's own layer, which nothing may
        then read through the copy.  update_partition reads only the
        indices update_layer_indices names.

        A layer object held at several copied indices is restricted once,
        and each further index gets a clone() of that copy, so every
        copied index still holds its own object."""
        keep = range(len(self.layers)) if indices is None else set(indices)
        copies: Dict[int, GraphDS] = {}
        layers = []
        for j, ds in enumerate(self.layers):
            if j not in keep:
                layers.append(ds)
            elif id(ds) in copies:
                layers.append(copies[id(ds)].clone())
            else:
                layers.append(copies.setdefault(id(ds), ds.restrict(verts)))
        return CutPartitionDS(self.g.restrict(verts), layers, self.params,
                              self.gamma)

    def fingerprint(self) -> Tuple:
        """Test oracle: the structure's state, compared by value."""
        graph = (tuple(sorted(self.g.edge_items())),
                 tuple(self.g.vertex_list()))
        return (graph, tuple(ds.fingerprint() for ds in self.layers))


def _remove_edges(g: MultiGraph, edges) -> MultiGraph:
    h = g.copy()
    for u, v in edges:
        if h.has_edge(u, v):
            h.remove_edge(u, v)
    return h


def _layer_ia(g: MultiGraph, terms: Set[VertexId], t_i: int, q_i: int,
              depth: int) -> Set[EdgeKey]:
    """One composition step: a strength-1 witness set per cluster of g
    that holds two terminals or more."""
    ia: Set[EdgeKey] = set()
    if len(terms) < 2:
        return ia
    for comp, local in touched_components(g, terms):
        if len(local) >= 2:
            ia |= initial_ia(induced_subgraph(g, comp), local, t_i, q_i,
                             depth)
    return ia


def cut_partition_preprocess(g: MultiGraph, phi: Fraction,
                             params: LayerParams, gamma: int
                             ) -> CutPartitionDS:
    """Build the structure from scratch: expander decomposition, then one
    witness layer per composition step.  The structure carries params and
    gamma, which must exceed params.c.

    A layer with no witness edges equals the layer before it, so it is the
    same GraphDS object: it gets no graph copy and no forest of its own.
    With no intercluster edges layer 0's graph equals g, so it is the
    structure's graph too: g is copied once.  On the flat schedule there
    are no intercluster and no witness edges, so each level holds one
    graph and one distinct layer, and runs one BFS.  The result is
    read-only (see CutPartitionDS): clone() and restrict() copy the graph
    and every layer apart, so an in-place update of a layer never reaches
    the graph of its copy."""
    if gamma <= params.c:
        raise RejectedOp("cut-partition", f"need gamma > c, got {gamma}")
    phi = Fraction(phi)
    # the decomposition reads distinct adjacency only, never a multiplicity
    deco = expander_decomposition(g, phi)
    inter = deco.intercluster
    n = params.layer_count()
    # _remove_edges returns a fresh graph that only the layer and, with
    # no intercluster edges, the structure then hold
    cur = _remove_edges(g, inter)
    terms = _ends(inter)
    layers = [GraphDS(cur, terms)]
    for i in range(1, n + 1):
        t_i, q_i = params.pairs[i - 1]
        ia = _layer_ia(cur, terms, t_i, q_i, n - i + 1)
        if ia:
            cur = _remove_edges(cur, ia)
            terms = terms | _ends(ia)
            layers.append(GraphDS(cur, terms))
        else:
            layers.append(layers[-1])
    return CutPartitionDS(g.copy() if inter else layers[0].g, layers, params,
                          gamma)


def splice_partition(parent: CutPartitionDS, drop: Set[VertexId],
                     part: CutPartitionDS) -> CutPartitionDS:
    """parent with its components on the vertices `drop` replaced by
    `part`, a structure built with the same parameters on other components.

    Every stage of cut_partition_preprocess works per component: the
    expander decomposition starts from the components, _layer_ia loops over
    them, and each BFS tree of a layer's forest is rooted at its least
    vertex and walks sorted neighbours.  So when parent and part were both
    preprocessed, the result is what cut_partition_preprocess builds on the
    spliced graph.  The kept components' adjacency and forest edges are
    shared with parent, so neither may be mutated afterwards.

    Each distinct (old, new) layer pair is spliced once, and every index
    that holds that pair shares the result.  So the result shares a layer
    only where both inputs do, where no component of either has witness
    edges, and a preprocess of the spliced graph shares it too.  Likewise
    the structure's graph is layer 0's spliced graph when both inputs'
    graphs are their layer 0's, where neither has intercluster edges, as
    in a preprocess of the spliced graph; otherwise it is spliced
    apart."""
    gone = [v for v in drop if parent.g.has_vertex(v)]
    # every layer has parent.g's vertices and a subset of its edges
    cut = {edge_key(u, v) for u in gone for v in parent.g.adjacent(u)}
    spliced: Dict[Tuple[int, int], GraphDS] = {}
    layers = []
    for old, new in zip(parent.layers, part.layers):
        key = (id(old), id(new))
        if key not in spliced:
            spliced[key] = GraphDS.from_forest(
                splice_graph(old.g, gone, new.g),
                (old.terminals - drop) | new.terminals,
                (old.forest - cut) | new.forest)
        layers.append(spliced[key])
    if parent.g is parent.layers[0].g and part.g is part.layers[0].g:
        g = layers[0].g
    else:
        g = splice_graph(parent.g, gone, part.g)
    return CutPartitionDS(g, layers, parent.params, parent.gamma)


def build_sparsifier(ods: CutPartitionDS) -> MultiGraph:
    """Superedges of the final layer's terminal contraction at multiplicity
    ods.gamma, plus every intercluster edge at its original multiplicity.

    Fresh from cut_partition_preprocess, the final layer's terminals are the
    K endpoints of the B edges kept verbatim, so K <= 2|B|, and the output
    has at most 2K <= 4|B| vertices and 2K + |B| <= 5|B| distinct edges.

    Proof.  The terminal contraction works on the spanning forest pruned of
    non-terminal leaves, so every leaf of a pruned tree is a terminal.  A
    tree with L leaves has at most L - 2 vertices of degree >= 3, so a
    pruned tree holding k terminals keeps at most k + (k - 2) nodes, and its
    superedges form a tree on those nodes: at most 2k - 3 superedges.
    Summing over trees gives at most K branch vertices and 2K superedges;
    the kept vertices are the K terminals plus the branch vertices, and the
    distinct edges are the superedges plus B.  The bound is tight up to
    lower-order terms: two binary trees with k leaves each, matched leaf to
    leaf, give |B| = k, 4k - 4 vertices and 5k - 6 edges.  It is not 3|B|:
    two 3-leaf stars joined leaf to leaf give |B| = 3 with 8 vertices and 9
    edges."""
    return _sparsifier_graph(ods.g, ods.layers[-1], ods.gamma)


def _sparsifier_graph(g: MultiGraph, ds_q: GraphDS, gamma: int) -> MultiGraph:
    """A layer with no terminals contracts to the empty graph, and every
    layer is a subgraph of g, so one with as many distinct edges as g
    leaves no edge of g outside it."""
    out = MultiGraph()
    if ds_q.terminals:
        cg = ds_q.contracted()
        for v in cg.vertex_list():
            out.add_vertex(v)
        for (u, v), _ in cg.edge_items():
            out.add_edge(u, v, gamma)
    if ds_q.g.distinct_edge_count() != g.distinct_edge_count():
        for (u, v), m in g.edge_items():
            if not ds_q.g.has_edge(u, v):
                for w in (u, v):
                    if not out.has_vertex(w):
                        out.add_vertex(w)
                out.add_edge(u, v, m)
    return out


def transformed_params(params: LayerParams) -> LayerParams:
    """The plain c-layer chain a strict structure degrades to: layer i keeps
    t from layer w_{i-1}+1 and q from layer w_i, paying one chain factor."""
    c = params.c
    n = c * c + 2 * c
    w_prev = 0
    pairs = []
    factor = n + 2
    for i in range(1, c + 1):
        w_i = w_prev + 2 * (c - i) + 3
        pairs.append((params.pairs[w_prev][0],
                      params.pairs[w_i - 1][1] * factor))
        w_prev = w_i
    return LayerParams(params.t, c, tuple(pairs), strict=False)


def update_layer_indices(c: int) -> List[int]:
    """The layer indices update_partition reads, and updates in place, at
    strength c: h and h + 2i for i = c down to 1, where h starts at 0 and
    moves to h + 2i + 1 after each i, then the final h."""
    out: List[int] = []
    h = 0
    for i in range(c, 0, -1):
        out += [h, h + 2 * i]
        h += 2 * i + 1
    return out + [h]


def update_partition(ods: CutPartitionDS, r_edges
                     ) -> Tuple[CutPartitionDS, UpdateSeq]:
    """Consume a strict (c^2+2c)-layer structure and a set R of newly
    intercluster edges; emit a plain c-layer structure for the refined
    partition plus the update sequence for its sparsifier.

    The layers at update_layer_indices(c) are read and updated in place,
    and no other index is read, so a non-empty R is refused unless each of
    those layers is held at no other index, as clone() and restrict() give.
    An empty R updates no layer.

    R must refine the partition: no edge of R may have both ends in one
    component of layer 0 minus R.  An end whose layer-0 edges all lie in R
    is isolated there, a component of its own, so its edge refines
    trivially.  Only when some edge of R has both ends keeping a layer-0
    edge outside R is a CutSearch of layer 0 asked for the piece of each
    edge's first end, which walks only the pieces holding an end of R.
    The repair sets start from the components of layer h that hold an end
    of R, which GraphDS.touched_components reads off the layer's forest:
    once the edges of R are deleted, ends with no edge left are
    singletons, and when the rest of the layer is one tree it needs no
    walk (on a query, R holds every edge at both anchors)."""
    params, gamma = ods.params, ods.gamma
    if not params.strict:
        raise RejectedOp("update-partition", "need a strict structure")
    c = params.c
    r_cur = {edge_key(u, v) for u, v in r_edges}
    g0 = ods.layers[0].g
    present = {e for e in r_cur if g0.has_edge(*e)}

    def kept(x: VertexId) -> bool:      # x keeps a g0 edge outside R
        return any(edge_key(x, y) not in present for y in g0.adjacent(x))

    if any(kept(u) and kept(v) for u, v in present):
        cs, e0 = CutSearch(g0), frozenset(present)
        for u, v in present:
            if v in cs.piece(e0, u):
                raise RejectedOp("update-partition",
                                 f"edge ({u},{v}) does not refine the "
                                 f"partition")
    read = [ods.layers[j] for j in update_layer_indices(c)]
    if r_cur and any(sum(ds is other for other in ods.layers) > 1
                     for ds in read):
        # an update of one index would show at every index sharing it
        raise RejectedOp("update-partition",
                         "layers are shared: update a clone() or restrict()")
    h = 0
    selected = [0]
    for i in range(c, 0, -1):
        ds_h = ods.layers[h]
        ds_h2i = ods.layers[h + 2 * i]
        r_next = {e for e in r_cur if ds_h.g.has_edge(*e)}
        for e in sorted(r_next):
            ds_h.ds_update(DeleteEdge(*e))
            if ds_h2i.g.has_edge(*e):
                ds_h2i.ds_update(DeleteEdge(*e))
        # each comp is a component of layer h, so a union of components of
        # its subgraph h + 2i as well
        for comp, xs in ds_h.touched_components(_ends(r_next)):
            r_next |= repair_set(ds_h.g.restrict(comp), ds_h.terminals & comp,
                                 ds_h2i.g.restrict(comp), xs, i,
                                 params.t_at(h),
                                 params.q_at(h + 2 * i) * (c + 1))
        for e in sorted(r_cur):
            for x in e:
                if ds_h.g.has_vertex(x):
                    ds_h.ds_update(InsertTerminal(x))
        h += 2 * i + 1
        selected.append(h)
        r_cur = r_next
    ds_h = ods.layers[h]
    # shadow copy of the current sparsifier: the contraction diff below is
    # merged into it so vertex ops that are absorbed by the intercluster part
    # (shared endpoints) are dropped from the emitted sequence
    shadow = _sparsifier_graph(ods.g, ds_h, gamma)
    new_seq: UpdateSeq = []

    def emit(op: UpdateOp) -> None:
        if isinstance(op, InsertVertex) and shadow.has_vertex(op.v):
            return
        if isinstance(op, DeleteVertex) and (
                not shadow.has_vertex(op.v) or shadow.degree(op.v) > 0):
            return
        apply_update(shadow, op)
        new_seq.append(op)

    r_final = [e for e in sorted(r_cur) if ds_h.g.has_edge(*e)]
    if r_final:
        # one diff over all the ops: it turns the old contraction into the
        # new one, and names nothing that no single op's diff would
        before = ds_h.contracted()
        for u, v in r_final:
            for ds_op in (InsertTerminal(u), InsertTerminal(v),
                          DeleteEdge(u, v)):
                ds_h.ds_update(ds_op)
        for op in contracted_diff(before, ds_h.contracted()):
            if isinstance(op, InsertEdge):
                emit(InsertEdge(op.u, op.v, gamma))
            else:
                emit(op)
    for u, v in r_final:
        for w in (u, v):
            emit(InsertVertex(w))
        emit(InsertEdge(u, v, ods.g.multiplicity(u, v)))
    new_layers = [ods.layers[j] for j in selected]
    return (CutPartitionDS(ods.g, new_layers, transformed_params(params),
                           gamma),
            new_seq)


def cut_partition_update(ods: CutPartitionDS, seq: UpdateSeq, phi: Fraction
                         ) -> Tuple[CutPartitionDS, UpdateSeq]:
    """Apply a multigraph update batch: isolate every touched vertex into a
    singleton cluster via pruning + re-decomposition, rebuild the layer
    chain with update_partition, then replay the batch on the base graph.
    update_partition refuses a plain structure before it changes any
    layer.

    The clusters the batch touches are the components of layer 0 that hold
    a vertex it names, read off the layer's forest by
    GraphDS.touched_components: exactly the components a walk would find,
    with no walk when the layer is one tree apart from isolated named
    vertices, as a query's copy of one component is."""
    phi = Fraction(phi)
    touched = named_vertices(seq)
    ds0 = ods.layers[0]
    r: Set[EdgeKey] = set()
    for comp, w_id in ds0.touched_components(
            [x for x in touched if ds0.g.has_vertex(x)]):
        d_id = {edge_key(u, v) for u in w_id for v in ds0.g.adjacent(u)}
        r_id = decremental_single_expander(ds0.g.restrict(comp), phi, d_id)
        r |= r_id | d_id
    new_ods, new_seq = update_partition(ods, r)
    base = new_ods.g
    for x in touched:
        if base.has_vertex(x) and base.is_isolated(x):
            new_seq.append(InsertVertex(x))
            for ds_i in new_ods.layers:
                ds_i.ds_update(InsertTerminal(x))
    new_seq = new_seq + list(seq)
    for op in seq:
        apply_update(base, op)
    for x in touched:
        if base.has_vertex(x) and base.is_isolated(x):
            new_seq.append(DeleteVertex(x))
            for ds_i in new_ods.layers:
                ds_i.ds_update(DeleteTerminal(x))
    return new_ods, new_seq
