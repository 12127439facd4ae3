import itertools
import random
from fractions import Fraction

import pytest

from dynacut import cutpartition
from dynacut.connectivity import edge_connectivity
from dynacut.cutpartition import (CutPartitionDS, LayerParams,
                                  build_sparsifier, cut_partition_preprocess,
                                  cut_partition_update, splice_partition,
                                  update_layer_indices, update_partition)
from dynacut.cutprimitives import boundary, components, cut_size, \
    is_connected_subset
from dynacut.dynforest import GraphDS
from dynacut.errors import RejectedOp
from dynacut.multigraph import (DeleteEdge, InsertEdge, InsertVertex,
                                MultiGraph, apply_seq, edge_key, simple_view,
                                splice_graph)

from util import (barbell, default_params, random_connected_graph,
                  two_barbells)


def _ends(edges):
    return {v for e in edges for v in e}


def _intercluster_edges(ods):
    g = ods.g
    gq = ods.layers[-1].g
    return {e for e in g.edge_keys() if not gq.has_edge(*e)}


def _is_cut_partition(g, bnd, t_verts, t, c):
    """Brute-force check of the small-cut witness property on a connected
    cluster graph: every terminal bipartition achievable by a small simple
    cut must be achievable (no larger) using only boundary edges."""
    verts = g.vertex_list()
    t_set = set(t_verts)
    best_small = {}
    best_bnd = {}
    for r in range(1, len(verts)):
        for side in itertools.combinations(verts, r):
            trace = frozenset(side) & t_set
            if not trace or trace == t_set:
                continue
            size = cut_size(g, side)
            key = frozenset(trace)
            if (len(side) <= t and size <= c
                    and is_connected_subset(g, side)):
                if key not in best_small or size < best_small[key]:
                    best_small[key] = size
            if boundary(g, side) <= bnd:
                if key not in best_bnd or size < best_bnd[key]:
                    best_bnd[key] = size
    for key, alpha in best_small.items():
        if key not in best_bnd or best_bnd[key] > alpha:
            return False
    return True


def _check_ods(ods, t, c):
    p_parts = ods.partition()
    q_parts = ods.cut_partition()
    owner = {v: i for i, part in enumerate(p_parts) for v in part}
    for q in q_parts:
        assert len({owner[v] for v in q}) == 1  # Q refines P
    bnd = _intercluster_edges(ods)
    g = ods.g
    terms = _ends({e for e in g.edge_keys()
                   if not ods.layers[0].g.has_edge(*e)})
    for part in p_parts:
        if len(part) > 14:
            continue
        sub = ods.layers[0].g
        from dynacut.multigraph import induced_subgraph
        cluster = induced_subgraph(sub, part)
        local_t = terms & set(part)
        local_bnd = {e for e in bnd if cluster.has_edge(*e)}
        assert _is_cut_partition(cluster, local_bnd, local_t, t, c)


# -- params ------------------------------------------------------------------

def test_default_params_valid_both_profiles():
    p = default_params(3, 2)
    assert len(p.pairs) == 2 and not p.strict
    s = default_params(2, 1, strict=True)
    assert len(s.pairs) == 3 and s.strict


def test_layer_params_rejects_broken_chain():
    with pytest.raises(RejectedOp):
        LayerParams(3, 2, ((3, 9), (10, 30)))  # 9*(c+1)=27 > 10
    with pytest.raises(RejectedOp):
        LayerParams(5, 2, ((3, 9), (100, 300)))  # t > t_1


# -- preprocessing -----------------------------------------------------------

def _plain_ods(g, c, t, phi):
    return cut_partition_preprocess(g, phi, default_params(t, c), c + 1)


def test_preprocess_edgeless():
    g = MultiGraph.from_edges(range(5), [])
    ods = _plain_ods(g, 1, 3, Fraction(1, 2))
    assert sorted(map(frozenset, ods.cut_partition())) == [
        frozenset({v}) for v in range(5)]
    assert build_sparsifier(ods).vertex_count() == 0


def test_preprocess_barbell():
    ods = _plain_ods(barbell(), 1, 7, Fraction(2, 5))
    parts = sorted(map(frozenset, ods.partition()))
    assert parts == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    assert sorted(map(frozenset, ods.cut_partition())) == parts
    sp = build_sparsifier(ods)
    assert sp.edge_keys() == [(2, 3)]
    assert sp.multiplicity(2, 3) == 1
    assert sp.vertex_list() == [2, 3]


def test_preprocess_cut_partition_property_fuzz():
    rng = random.Random(71)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(6, 13),
                                   rng.randrange(8))
        c = rng.choice([1, 2])
        phi = Fraction(1, 3)
        t = max((c * 3), 4)
        ods = _plain_ods(g, c, t, phi)
        _check_ods(ods, t, c)


# -- sparsifier --------------------------------------------------------------

def test_sparsifier_size_bound_and_equivalence_fuzz():
    rng = random.Random(72)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(5, 11),
                                   rng.randrange(6))
        c = rng.choice([1, 2])
        phi = Fraction(1, 3)
        t = max(int(c / phi) + 1, 3)
        ods = _plain_ods(g, c, t, phi)
        sp = build_sparsifier(ods)
        bnd = _intercluster_edges(ods)
        k = len(_ends(bnd))
        assert sp.vertex_count() <= 2 * k
        assert sp.distinct_edge_count() <= 2 * k + len(bnd)
        terms = sorted(_ends({e for e in g.edge_keys()
                              if not ods.layers[0].g.has_edge(*e)}))
        for x, y in itertools.combinations(terms, 2):
            assert edge_connectivity(g, x, y, c) == \
                edge_connectivity(sp, x, y, c)


def test_sparsifier_rejects_small_gamma():
    """gamma is set once, at preprocessing, which refuses gamma <= c; the
    sparsifier then contracts at the structure's own gamma."""
    params = default_params(7, 1)
    with pytest.raises(RejectedOp, match="gamma"):
        cut_partition_preprocess(barbell(), Fraction(2, 5), params, 1)
    ods = cut_partition_preprocess(barbell(), Fraction(2, 5), params, 2)
    assert ods.gamma == 2


# -- update_partition --------------------------------------------------------

def _strict_ods(g, c, t, phi=Fraction(1, 3)):
    return cut_partition_preprocess(g, phi, default_params(t, c, strict=True),
                                    c + 1)


def test_update_partition_empty_r():
    g = barbell()
    ods = _strict_ods(g, 1, 4, Fraction(2, 5))
    old_sp = build_sparsifier(ods)
    new_ods, seq = update_partition(ods, set())
    assert seq == []
    assert len(new_ods.layers) == 2
    assert build_sparsifier(new_ods) == old_sp


def test_update_partition_rejects_plain_profile():
    ods = _plain_ods(barbell(), 1, 7, Fraction(2, 5))
    with pytest.raises(RejectedOp):
        update_partition(ods, set())


def test_update_partition_rejects_non_refining_r():
    g = MultiGraph.from_edges(range(4),
                              [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    ods = _strict_ods(g, 1, 4)
    # a single chord of the 4-cycle leaves the cluster connected
    assert len(ods.partition()) == 1
    with pytest.raises(RejectedOp, match="refine"):
        update_partition(ods, {(0, 2)})


def test_update_partition_accepts_r_isolating_a_vertex_unlabelled(
        monkeypatch):
    """R holds every edge at vertex 1 of the chorded 4-cycle, so each edge
    of R has an end that is isolated once R is removed: R refines the
    partition without a CutSearch being built to check it."""
    labelled = []
    monkeypatch.setattr(cutpartition, "CutSearch",
                        lambda *args: labelled.append(args))
    g = MultiGraph.from_edges(range(4),
                              [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    ods = _strict_ods(g, 1, 4)
    new_ods, seq = update_partition(ods.clone(), {(0, 1), (1, 2)})
    assert labelled == []
    assert build_sparsifier(new_ods) == apply_seq(build_sparsifier(ods), seq)


def test_update_partition_rejects_chord_beside_an_isolating_edge():
    """Edges of R with an isolated end do not excuse the rest of R: R
    holds (0, 1) and (1, 2), which leave vertex 1 isolated, and the
    4-cycle chord (0, 2), whose ends stay joined through vertex 3."""
    g = MultiGraph.from_edges(range(4),
                              [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    ods = _strict_ods(g, 1, 4)
    with pytest.raises(RejectedOp, match="refine"):
        update_partition(ods.clone(), {(0, 1), (1, 2), (0, 2)})


def test_update_partition_refuses_shared_layers():
    """A preprocess shares its equal layers, so update_partition refuses
    to update them in place and leaves them as they were; on a clone,
    where every index holds its own layer, the same update runs."""
    ods = _strict_ods(barbell(), 1, 4, Fraction(2, 5))
    assert ods.layers[1] is ods.layers[0]
    before = ods.fingerprint()
    r = {(0, 1), (0, 2)}
    with pytest.raises(RejectedOp, match="shared"):
        update_partition(ods, r)
    assert ods.fingerprint() == before
    new_ods, seq = update_partition(ods.clone(), r)
    assert build_sparsifier(new_ods) == apply_seq(build_sparsifier(ods), seq)
    assert ods.fingerprint() == before


def _random_refining_r(rng, ods):
    g0 = ods.layers[0].g
    parts = [p for p in components(g0) if len(p) >= 2]
    if not parts:
        return set()
    part = sorted(rng.choice(parts))
    k = rng.randrange(1, len(part))
    side = set(rng.sample(part, k))
    return set(boundary(g0, side))


def test_update_partition_fuzz():
    rng = random.Random(73)
    done = 0
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(5, 11),
                                   rng.randrange(6))
        c, t = 1, 3
        ods = _strict_ods(g, c, t)
        r = _random_refining_r(rng, ods)
        if not r:
            continue
        old_sp = build_sparsifier(ods)
        work = ods.clone()
        new_ods, seq = update_partition(work, r)
        done += 1
        assert len(seq) <= 4 * max(len(r), 1) * (10 * c) ** (3 * c)
        assert build_sparsifier(new_ods) == apply_seq(old_sp.copy(), seq)
        assert len(new_ods.layers) == c + 1
        _check_ods(new_ods, t, c)
        # every R edge is now intercluster
        inter = _intercluster_edges(new_ods)
        assert r <= inter
    assert done >= 5


def test_update_partition_contracts_the_final_layer_twice(monkeypatch):
    """One update_partition call builds the final layer's contraction at
    most twice, before and after all its ops, however many edges of R reach
    that layer; the one diff between the two still turns the old
    sparsifier into the new one."""
    built = []
    build = GraphDS._compute_contraction

    def counted(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(GraphDS, "_compute_contraction", counted)
    rng = random.Random(75)
    many = 0
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(5, 11),
                                   rng.randrange(6))
        for c in (1, 2):
            ods = _strict_ods(g, c, 3)
            r = _random_refining_r(rng, ods)
            old_sp = build_sparsifier(ods)
            work = ods.clone()
            built.clear()
            new_ods, seq = update_partition(work, r)
            assert len(built) <= 2
            assert all(ds is work.layers[-1] for ds in built)
            assert build_sparsifier(new_ods) == apply_seq(old_sp.copy(), seq)
            many += len(_intercluster_edges(new_ods)) >= 3
    assert many >= 5


class _Unread:
    """A stand-in layer that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"update_partition read a layer: .{name}")


def test_restrict_gives_shared_layers_distinct_copies():
    """A layer object held at several indices is restricted once, and every
    copied index still gets its own object: its fingerprint is what a
    restrict of that index alone gives, and an op on one copy shows in no
    other copy and not in the source.  Covers the flat case, where every
    layer is one object, and structures with witness layers."""
    rng = random.Random(75)
    shared = 0
    for _ in range(10):
        g = MultiGraph()
        for part in (random_connected_graph(rng, rng.randrange(2, 7),
                                            rng.randrange(4))
                     for _ in range(rng.randrange(1, 4))):
            base = g.vertex_count()
            for v in part.vertex_list():
                g.add_vertex(base + v)
            for (u, v), m in part.edge_items():
                g.add_edge(base + u, base + v, m)
        comps = components(g)
        verts = set().union(*rng.sample(comps, rng.randrange(1, len(comps)
                                                              + 1)))
        for c, phi in ((1, Fraction(1, 1000)), (2, Fraction(1, 1000)),
                       (2, Fraction(1, 3))):
            ods = _strict_ods(g, c, 3, phi)
            shared += len({id(ds) for ds in ods.layers}) < len(ods.layers)
            before = ods.fingerprint()
            for indices in (None, update_layer_indices(c)):
                cut = ods.restrict(verts, indices)
                keep = (range(len(ods.layers)) if indices is None
                        else indices)
                copied = [cut.layers[j] for j in keep]
                assert len({id(ds) for ds in copied}) == len(copied)
                assert not {id(ds) for ds in copied} & {id(ds) for ds
                                                        in ods.layers}
                for j in keep:
                    assert cut.layers[j].fingerprint() == \
                        ods.layers[j].restrict(verts).fingerprint()
                e = next((e for e in copied[0].g.pairs()), None)
                if e is not None:
                    others = [ds.fingerprint() for ds in copied[1:]]
                    copied[0].ds_update(DeleteEdge(*e))
                    assert [ds.fingerprint() for ds in copied[1:]] == others
                assert ods.fingerprint() == before
    assert shared >= 20


def test_one_graph_per_flat_level(monkeypatch):
    """With no intercluster edges layer 0 is the whole input graph, and a
    structure holds it once: its graph is layer 0's graph, in a preprocess
    and in a splice of two such structures.  With intercluster edges the
    two are different objects, in both too.  A restrict() copy holds its
    graph apart from its layers, so the edges R that cut_partition_update
    deletes from the copy's layers all stay in the copy's graph, and the
    source is unchanged."""
    g = two_barbells()
    h = g.restrict(set(range(6)))
    h.remove_edge(0, 1)
    for phi, flat in ((Fraction(1, 1000), True), (Fraction(2, 5), False)):
        ods = _strict_ods(g, 1, 4, phi)
        part = _strict_ods(h, 1, 4, phi)
        out = splice_partition(ods, set(range(6)), part)
        assert out.fingerprint() == _strict_ods(
            out.g.copy(), 1, 4, phi).fingerprint()
        assert ods.g == g and part.g == h
        assert out.g == splice_graph(g, set(range(6)), h)
        for s in (ods, part, out):
            assert (s.g is s.layers[0].g) == flat
    ods = _strict_ods(g, 1, 4, Fraction(1, 1000))
    before = ods.fingerprint()
    seen = []
    update = cutpartition.update_partition

    def spy(ods, r_edges):
        seen.append(set(r_edges))
        return update(ods, r_edges)

    monkeypatch.setattr(cutpartition, "update_partition", spy)
    cut = ods.restrict(set(range(6)), update_layer_indices(1))
    assert cut.g is not cut.layers[0].g
    new_ods, _ = cut_partition_update(
        cut, [InsertVertex(-1), InsertEdge(2, -1, 2)], Fraction(1, 1000))
    (r,) = seen
    assert r and all(new_ods.g.has_edge(*e) for e in r)
    assert not any(new_ods.layers[0].g.has_edge(*e) for e in r)
    assert ods.fingerprint() == before


def test_update_partition_reads_only_its_layer_indices():
    """update_partition reads only the layers update_layer_indices names:
    with a stand-in that fails on any use at every other index, it gives
    what it gives on a clone.  restrict with those indices copies only
    them, keeps the source's own layers at the others, and the update on
    it leaves the source unchanged."""
    assert update_layer_indices(1) == [0, 2, 3]
    assert update_layer_indices(2) == [0, 4, 5, 7, 8]
    rng = random.Random(74)
    done = 0
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(5, 10),
                                   rng.randrange(6))
        for c in (1, 2):
            ods = _strict_ods(g, c, 3)
            r = _random_refining_r(rng, ods)
            if not r:
                continue
            reads = update_layer_indices(c)
            want_ods, want_seq = update_partition(ods.clone(), r)
            part = ods.clone()
            part.layers = [ds if j in reads else _Unread()
                           for j, ds in enumerate(part.layers)]
            got_ods, got_seq = update_partition(part, r)
            assert got_seq == want_seq
            assert got_ods.fingerprint() == want_ods.fingerprint()
            before = ods.fingerprint()
            cut = ods.restrict(set(g.vertex_list()), reads)
            assert [cut.layers[j] is ds for j, ds in enumerate(ods.layers)] \
                == [j not in reads for j in range(len(ods.layers))]
            got_ods, got_seq = update_partition(cut, r)
            assert got_seq == want_seq
            assert got_ods.fingerprint() == want_ods.fingerprint()
            assert ods.fingerprint() == before
            done += 1
    assert done >= 8


# -- cut_partition_update ----------------------------------------------------

def test_cpu_isolated_vertex_insertion():
    g = barbell()
    ods = _strict_ods(g, 1, 4, Fraction(2, 5))
    old_sp = build_sparsifier(ods)
    new_ods, seq = cut_partition_update(ods.clone(), [InsertVertex(99)],
                                        Fraction(2, 5))
    assert new_ods.g.has_vertex(99)
    assert build_sparsifier(new_ods) == apply_seq(old_sp.copy(), seq)


def test_cpu_barbell_bridge_deletion():
    g = barbell()
    ods = _strict_ods(g, 1, 4, Fraction(2, 5))
    old_sp = build_sparsifier(ods)
    new_ods, seq = cut_partition_update(ods.clone(), [DeleteEdge(2, 3)],
                                        Fraction(2, 5))
    assert not new_ods.g.has_edge(2, 3)
    # touched endpoints become singleton clusters
    q = {frozenset(p) for p in new_ods.cut_partition()}
    assert frozenset({2}) in q and frozenset({3}) in q
    assert build_sparsifier(new_ods) == apply_seq(old_sp.copy(), seq)


def test_cpu_fuzz():
    rng = random.Random(74)
    done = 0
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(5, 10),
                                   rng.randrange(5))
        c, t = 1, 3
        ods = _strict_ods(g, c, t)
        edges = g.edge_keys()
        seq = []
        dropped = set()
        for e in rng.sample(edges, min(2, len(edges))):
            seq.append(DeleteEdge(*e))
            dropped.add(e)
        g2 = g.copy()
        ok = True
        try:
            apply_seq(g2, seq)
        except RejectedOp:
            ok = False
        if not ok or not seq:
            continue
        old_sp = build_sparsifier(ods)
        delta = max(simple_view(g).degree(v) for v in g.vertex_list())
        new_ods, out = cut_partition_update(ods.clone(), seq,
                                            Fraction(1, 3))
        done += 1
        assert new_ods.g == g2
        assert build_sparsifier(new_ods) == apply_seq(old_sp.copy(), out)
        # touched vertices are singletons in the refined partition
        q = {frozenset(p) for p in new_ods.cut_partition()}
        for e in dropped:
            for x in e:
                if new_ods.g.has_vertex(x):
                    assert frozenset({x}) in q
        # intercluster growth bound
        old_b = len(_intercluster_edges(ods))
        new_b = len(_intercluster_edges(new_ods))
        assert new_b <= old_b + 8 * len(seq) * delta * (10 * c) ** (3 * c)
        _check_ods(new_ods, t, c)
    assert done >= 5


def test_cpu_rejects_plain_profile():
    ods = _plain_ods(barbell(), 1, 7, Fraction(2, 5))
    with pytest.raises(RejectedOp):
        cut_partition_update(ods, [], Fraction(2, 5))
