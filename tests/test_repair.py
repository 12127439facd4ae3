import hashlib
import itertools
import random
import weakref

import pytest

from dynacut import cutprimitives, repair
from dynacut.cutprimitives import (
    CutSearch,
    RealizablePair,
    boundary,
    component_labels,
    cut_size,
    enumerate_cuts,
    induced_cut_side,
    induces_atomic_cut,
    intercepts,
    is_connected_subset,
)
from dynacut.errors import RejectedOp
from dynacut.multigraph import MultiGraph, edge_key, induced_subgraph
from dynacut.repair import (
    BipartitionSystem,
    IAParams,
    IASet,
    bipartition_system,
    elimination,
    initial_ia,
    layered_ia,
    repair_set,
    type_one_repair_set,
    type_three_repair_set,
    type_two_repair_set,
    verify_ia,
)

from util import barbell, cycle_graph, path_graph, random_connected_graph


def _rand_graph(rng, lo, hi, extra=None):
    n = rng.randrange(lo, hi)
    if extra is None:
        extra = rng.randrange(0, n)
    return random_connected_graph(rng, n, extra)


# -- elimination -----------------------------------------------------------

def test_elimination_empty():
    g = barbell()
    assert elimination(CutSearch(g), {0, 4}, []) == set()


def test_elimination_singleton_gives_boundary():
    g = barbell()
    before = g.copy()
    p = RealizablePair.of({(2, 3)}, {0, 1, 2})
    assert elimination(CutSearch(g), {0, 4}, [p]) == {(2, 3)}
    assert g == before


def test_elimination_intercepts_every_pair():
    rng = random.Random(5)
    done = 0
    while done < 20:
        g = _rand_graph(rng, 6, 12)
        s = set(rng.sample(g.vertex_list(), 3))
        t_set = set(rng.sample(g.vertex_list(), 3))
        c, t = 2, 4
        # build a conforming Gamma: pairs separated from a common vertex,
        # each side holding at least one terminal
        gamma = _conforming_gamma(rng, g, c, t, s | t_set)
        if not gamma:
            continue
        terms = s | t_set
        w = elimination(CutSearch(g), terms, gamma)
        for pair in gamma:
            tr = pair.side & terms
            cuts = enumerate_cuts(CutSearch(g), terms, tr,
                                  cut_size(g, pair.side), len(pair.side))
            assert any(intercepts(g, w, boundary(g, v)) for v in cuts), \
                "no intercepted witness cut for a pair"
        done += 1


def _conforming_gamma(rng, g, c, t, terms):
    verts = g.vertex_list()
    anchor = max(verts)
    out = []
    for _ in range(60):
        k = rng.randrange(1, t + 1)
        side = frozenset(rng.sample([v for v in verts if v != anchor], k))
        if not (side & terms):
            continue
        if not is_connected_subset(g, side) or cut_size(g, side) > c:
            continue
        b = sorted(boundary(g, side))
        for r in range(1, len(b) + 1):
            found = None
            for combo in itertools.combinations(b, r):
                e = frozenset(combo)
                if induces_atomic_cut(CutSearch(g), e) and \
                        anchor not in induced_cut_side(CutSearch(g), e, side):
                    found = e
                    break
            if found:
                out.append(RealizablePair(found, side))
                break
        if len(out) >= 3:
            break
    return out


# -- bipartition system ----------------------------------------------------

def test_bipartition_single_terminal_empty():
    g = barbell()
    bs = bipartition_system(CutSearch(g), {2}, 2, 3)
    assert bs.pairs == []


def test_bipartition_barbell_bridge_pair():
    g = barbell()
    before = g.copy()
    bs = bipartition_system(CutSearch(g), {2, 3}, 1, 3)
    assert len(bs.pairs) <= 2 * (2 - 1)
    assert any(p.edges == frozenset({(2, 3)}) for p in bs.pairs)
    assert g == before


def _brute_candidates(g, s, c, t):
    """Every (pair, S-trace) on a connected side of at most t vertices and
    cut size at most c that meets S, with an atomic boundary subset whose
    induced side splits S nontrivially."""
    s = frozenset(s)
    out = set()
    for r in range(1, t + 1):
        for sub in itertools.combinations(g.vertex_list(), r):
            side = frozenset(sub)
            if (not side & s or cut_size(g, side) > c
                    or not is_connected_subset(g, side)):
                continue
            es = sorted(boundary(g, side))
            for k in range(1, len(es) + 1):
                for e in map(frozenset, itertools.combinations(es, k)):
                    if not induces_atomic_cut(CutSearch(g), e):
                        continue
                    trace = s & induced_cut_side(CutSearch(g), e, side)
                    if trace and trace != s:
                        out.add((RealizablePair(e, side), trace))
    return out


def test_bipartition_size_bound_fuzz():
    """Held pairs respect the 2(|S|-1) bound with distinct nontrivial
    traces; the candidates list each pair once, hold every held (pair,
    trace), and equal a brute-force family."""
    rng = random.Random(9)
    for _ in range(25):
        g = _rand_graph(rng, 5, 13)
        s = set(rng.sample(g.vertex_list(), rng.randrange(2, 5)))
        bs = bipartition_system(CutSearch(g), s, 2, 4)
        assert len(bs.pairs) <= 2 * (len(s) - 1)
        # all held traces nontrivial and distinct
        assert len(bs.traces) == len(bs.pairs)
        assert len(set(bs.traces)) == len(bs.traces)
        for tr in bs.traces:
            assert frozenset() != tr != frozenset(s)
        cand_pairs = [pair for pair, _ in bs.candidates]
        assert len(set(cand_pairs)) == len(cand_pairs)
        assert set(zip(bs.pairs, bs.traces)) <= set(bs.candidates)
        assert set(bs.candidates) == _brute_candidates(g, s, 2, 4)


# -- typed repair sets: size bounds ----------------------------------------

def _repair_scenario(rng, c=1, n_lo=6, n_hi=13):
    """G0 with removed vertices; returns (g, s, t_set, ia2, ia3) where ia2 /
    ia3 are prior IA restrictions of strengths 2c and 2c+1."""
    g0 = _rand_graph(rng, n_lo, n_hi)
    t0 = set(rng.sample(g0.vertex_list(), rng.randrange(2, 5)))
    d = 2 * c + 1
    t1 = 2
    qs = []
    layers = []
    q_i = 3 * t1
    t_i = t1
    for _ in range(d):
        layers.append((t_i, q_i))
        qs.append(q_i)
        t_i = q_i * (d + 1)
        q_i = 3 * t_i
    ia = layered_ia(g0, t0, layers, d)
    strength2c = set().union(*(set(e) for e, _, _ in ia.derivation[:2 * c]))
    strength2c1 = strength2c | set(ia.derivation[2 * c][0])
    # drop a connected chunk of vertices
    keep = None
    for _ in range(50):
        drop = set(rng.sample(g0.vertex_list(),
                              rng.randrange(1, g0.vertex_count() - 2)))
        cand = set(g0.vertex_list()) - drop
        sub = induced_subgraph(g0, cand)
        if is_connected_subset(sub, cand):
            keep = cand
            break
    if keep is None:
        return None
    g = induced_subgraph(g0, keep)
    s = {v for v in keep
         if any(w not in keep for w in g0.neighbors(v))}
    if not s:
        return None
    t_set = (t0 & keep) - s
    restrict = lambda es: {e for e in es if g.has_edge(*e)}
    return g, s, t_set, restrict(strength2c), restrict(strength2c1), layers, d


def test_type_sets_empty_s():
    g = barbell()
    comp3 = component_labels(g)
    assert type_one_repair_set(CutSearch(g), set(), {0, 4}, comp3,
                               1, 3) == set()
    assert type_two_repair_set(CutSearch(g), set(), {0, 4}, comp3,
                               1, 3, 6) == set()
    assert repair_set(g, {0, 4}, g, set(), 1, 3, 6) == set()


def test_repair_set_rejects_terminal_absent_from_either_graph():
    g = barbell()
    g3 = g.copy()
    g3.add_vertex(9)
    with pytest.raises(RejectedOp):
        repair_set(g, set(), g3, {9}, 1, 3, 6)
    with pytest.raises(RejectedOp):
        repair_set(g3, set(), g, {9}, 1, 3, 6)


def test_repair_set_size_bounds_fuzz():
    rng = random.Random(17)
    done = 0
    while done < 10:
        scen = _repair_scenario(rng, c=1)
        if scen is None:
            continue
        g, s, t_set, ia2, ia3, layers, d = scen
        c, t, q = 1, 2, 8
        t2 = set(s) | set(t_set)
        h = g.copy()
        for u, v in ia2:
            h.remove_edge(u, v)
        inputs = (g.copy(), h.copy(), frozenset(s), frozenset(t2))
        comp3 = component_labels(h)
        w1 = type_one_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        w2 = type_two_repair_set(CutSearch(g), s, t_set, comp3, c, t, q)
        w3 = type_three_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        ns = len(s)
        assert len(w1) <= ns * (16 * c ** 3 + 16 * c ** 2 + 2 * c)
        assert len(w2) <= ns * (4 * c ** 3 + 4 * c ** 2)
        assert len(w3) <= ns * (4 * c ** 3 + 4 * c ** 2 + 2 * c)
        w = repair_set(g, t2, h, s, c, t, q)
        assert len(w) <= ns * (24 * c ** 3 + 24 * c ** 2 + 4 * c)
        assert w == (w1 | w2 | w3)
        assert (g, h, s, t2) == inputs
        done += 1


def test_repair_set_union_is_valid_ia():
    rng = random.Random(29)
    done = 0
    while done < 6:
        scen = _repair_scenario(rng, c=1, n_lo=6, n_hi=11)
        if scen is None:
            continue
        g, s, t_set, ia2, ia3, layers, d = scen
        c, t, q = 1, 2, 8
        h = g.copy()
        for u, v in ia2:
            h.remove_edge(u, v)
        w = repair_set(g, set(s) | set(t_set), h, s, c, t, q)
        union = set(ia3) | w
        assert verify_ia(g, set(s) | set(t_set), union,
                         IAParams(t, q + t, c, 1))
        done += 1


def _scenarios(seed, count):
    """`count` repair scenarios (c = 1), each with DS3's graph: g minus the
    strength-2c prior IA set."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        scen = _repair_scenario(rng, c=1)
        if scen is None:
            continue
        g, s, t_set, ia2, ia3, layers, d = scen
        g3 = g.copy()
        for u, v in ia2:
            g3.remove_edge(u, v)
        out.append((g, s, t_set, ia2, ia3, g3))
    return out


# (c, t, q) for each repair_set call on a scenario
_REPAIR_ARGS = ((1, 2, 8), (2, 2, 8), (1, 3, 6), (2, 4, 12))


def _random_repair_inputs(seed, count):
    """`count` repair_set inputs on small random graphs g: DS2's terminals,
    DS3's graph (g minus up to two edges), S, and (c, t, q)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = _rand_graph(rng, 5, 10, rng.randrange(0, 4))
        verts = g.vertex_list()
        s = set(rng.sample(verts, rng.randrange(1, 4)))
        t2 = set(rng.sample(verts, rng.randrange(1, 5)))
        g3 = g.copy()
        for u, v in rng.sample(g.edge_keys(), rng.randrange(0, 3)):
            g3.remove_edge(u, v)
        c, t = rng.randrange(1, 3), rng.randrange(2, 5)
        out.append((g, t2, g3, s, c, t, 2 * t + rng.randrange(0, 3)))
    return out


def test_repair_set_output_is_unchanged():
    """repair_set gives what it gave when every helper searched afresh,
    before the helpers of one call shared a CutSearch.  The digests were
    recorded from that implementation: 30 scenarios (their layered_ia
    prior sets, which are repair sets too, and four repair_set calls on
    each; 217 repair edges in all), and 60 random inputs (137 edges)."""
    digest = hashlib.sha256()
    found = 0
    for g, s, t_set, ia2, ia3, g3 in _scenarios(43, 30):
        digest.update(repr((sorted(g.edge_items()), sorted(s),
                            sorted(t_set), sorted(ia2), sorted(ia3))
                           ).encode())
        for c, t, q in _REPAIR_ARGS:
            w = repair_set(g, set(s) | set(t_set), g3, s, c, t, q)
            found += len(w)
            digest.update(repr(sorted(w)).encode())
    assert found == 217
    assert digest.hexdigest()[:16] == "95eda4f1ec35e6c3"
    digest = hashlib.sha256()
    found = 0
    for g, t2, g3, s, c, t, q in _random_repair_inputs(59, 60):
        w = repair_set(g, t2, g3, s, c, t, q)
        found += len(w)
        digest.update(repr((sorted(g.edge_items()), sorted(t2),
                            sorted(g3.edge_items()), sorted(s), c, t, q,
                            sorted(w))).encode())
    assert found == 137
    assert digest.hexdigest()[:16] == "e62c4806c97b4375"


def test_repair_set_runs_each_search_once(monkeypatch):
    """Within one repair_set call each distinct (x, c, t, excluded)
    simple-cut search runs once and no threshold's heavy-class quotient is
    built twice, though the helpers ask for some searches several times;
    every search threshold c is among the quotients built, and pieces may
    add thresholds of their own.  No search runs that an earlier search of
    the same x covers: one at c0 >= c and t0 >= t whose excluded set is a
    subset.  The call's CutSearch is gone when it returns."""
    searches, quotients, made = [], [], []
    asked = [0]
    run_search = cutprimitives.enumerate_simple_cuts
    quotient = cutprimitives._heavy_quotient
    ask = cutprimitives.CutSearch.simple_cuts
    init = cutprimitives.CutSearch.__init__

    def spy_search(cs, x, c, t, excluded=()):
        searches.append((x, c, t, frozenset(excluded) - {x}))
        return run_search(cs, x, c, t, excluded)

    def spy_quotient(g, c):
        quotients.append(c)
        return quotient(g, c)

    def spy_ask(self, *args, **kwargs):
        asked[0] += 1
        return ask(self, *args, **kwargs)

    def spy_init(self, g):
        made.append(weakref.ref(self))
        init(self, g)

    monkeypatch.setattr(cutprimitives, "enumerate_simple_cuts", spy_search)
    monkeypatch.setattr(cutprimitives, "_heavy_quotient", spy_quotient)
    monkeypatch.setattr(cutprimitives.CutSearch, "simple_cuts", spy_ask)
    monkeypatch.setattr(cutprimitives.CutSearch, "__init__", spy_init)
    repeats = 0
    for g, s, t_set, _, _, g3 in _scenarios(47, 12):
        for c, t, q in _REPAIR_ARGS:
            del searches[:], quotients[:], made[:]
            asked[0] = 0
            repair_set(g, set(s) | set(t_set), g3, s, c, t, q)
            assert len(set(searches)) == len(searches)
            for i, (x, c_i, t_i, e_i) in enumerate(searches):
                assert not any(x0 == x and c0 >= c_i and t0 >= t_i
                               and e0 <= e_i
                               for x0, c0, t0, e0 in searches[:i])
            assert len(set(quotients)) == len(quotients)
            assert {k[1] for k in searches} <= set(quotients)
            assert len(made) == 1 and made[0]() is None
            repeats += asked[0] - len(searches)
    assert repeats > 0


def test_bipartition_skips_sides_holding_s(monkeypatch):
    """bipartition_system never asks for the atomic boundary subsets of a
    side that holds all of S, whose subsets would all trace S, though the
    anchored enumeration it reads yields such sides."""
    asked = []
    atomic_subsets = cutprimitives.CutSearch.atomic_subsets

    def spy(self, side):
        asked.append(frozenset(side))
        return atomic_subsets(self, side)

    monkeypatch.setattr(cutprimitives.CutSearch, "atomic_subsets", spy)
    rng = random.Random(83)
    holding = tested = 0
    for _ in range(40):
        g = _rand_graph(rng, 4, 11)
        s = frozenset(rng.sample(g.vertex_list(), rng.randrange(1, 4)))
        c, t = rng.randrange(1, 4), rng.randrange(2, 6)
        del asked[:]
        bipartition_system(CutSearch(g), s, c, t)
        assert not any(s <= side for side in asked)
        tested += len(asked)
        holding += sum(s <= side for _, side in
                       cutprimitives.enumerate_anchored_cuts(CutSearch(g), s,
                                                             c, t))
    assert tested > 20 and holding > 20


def test_type_two_with_empty_t_runs_no_search(monkeypatch):
    """With T minus S empty, type two gives the empty set at once, before
    any simple-cut search."""
    searches = []
    run = cutprimitives.enumerate_simple_cuts

    def spy(*args, **kwargs):
        searches.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(cutprimitives, "enumerate_simple_cuts", spy)
    rng = random.Random(89)
    for _ in range(10):
        g = _rand_graph(rng, 4, 11)
        s = set(rng.sample(g.vertex_list(), rng.randrange(1, 4)))
        comp3 = component_labels(g)
        assert type_two_repair_set(CutSearch(g), s, set(), comp3,
                                   2, 3, 6) == set()
    assert not searches


def test_ds3_labels_walk_only_the_components_read(monkeypatch):
    """DS3's graph g3 has two components, and S, T and every boundary of g
    lie in the first: repair_set walks g3 only inside it, and gives what
    the typed sets give on every component's labels."""
    walked = []
    reachable = cutprimitives._reachable

    def spy(g, start, *args, **kwargs):
        out = reachable(g, start, *args, **kwargs)
        walked.append((g, out))
        return out

    monkeypatch.setattr(cutprimitives, "_reachable", spy)
    rng = random.Random(97)
    read = 0
    for _ in range(20):
        a = _rand_graph(rng, 5, 10)
        other = random_connected_graph(rng, rng.randrange(3, 7), 2)
        b = {v: 100 + v for v in other.vertex_list()}
        g = MultiGraph.from_edges(
            a.vertex_list() + sorted(b.values()),
            a.edge_keys() + [(b[u], b[v]) for u, v in other.edge_keys()])
        g3 = g.copy()
        for u, v in rng.sample(a.edge_keys(), rng.randrange(0, 2)):
            g3.remove_edge(u, v)
        s = set(rng.sample(a.vertex_list(), rng.randrange(1, 3)))
        t2 = s | set(rng.sample(a.vertex_list(), 2))
        c, t = rng.randrange(1, 3), rng.randrange(2, 4)
        del walked[:]
        w = repair_set(g, t2, g3, s, c, t, 2 * t)
        on_g3 = [comp for h, comp in walked if h is g3]
        assert all(comp <= set(a.vertex_list()) for comp in on_g3)
        read += bool(on_g3)
        comp3 = component_labels(g3)
        t_set = t2 - s
        assert w == (type_one_repair_set(CutSearch(g), s, t_set, comp3, c, t)
                     | type_two_repair_set(CutSearch(g), s, t_set, comp3,
                                           c, t, 2 * t)
                     | type_three_repair_set(CutSearch(g), s, t_set, comp3,
                                             c, t))
    assert read >= 10


def test_repair_set_on_edgeless_graph_searches_nothing(monkeypatch):
    """An edgeless g has the empty repair set, which repair_set gives
    without labelling DS3 or building a CutSearch; it still logs the call
    and still rejects bad arguments.  The typed sets, asked directly,
    agree."""
    built, labelled = [], []
    init = cutprimitives.CutSearch.__init__
    labels = repair.component_of

    def spy_init(self, g):
        built.append(g)
        init(self, g)

    def spy_labels(g, x):
        labelled.append(g)
        return labels(g, x)

    monkeypatch.setattr(cutprimitives.CutSearch, "__init__", spy_init)
    monkeypatch.setattr(repair, "component_of", spy_labels)
    for n, s, t2 in ((1, {0}, {0}), (4, {0, 2}, {0, 1, 2, 3})):
        g = MultiGraph.from_edges(range(n), [])
        g3 = g.copy()
        del built[:], labelled[:]
        for c, t, q in _REPAIR_ARGS:
            with repair.recording() as log:
                assert repair_set(g, t2, g3, s, c, t, q) == set()
            assert log == [(len(s), 0, c)]
        assert not built and not labelled
        comp3 = component_labels(g3)
        t_set = t2 - s
        assert type_one_repair_set(CutSearch(g), s, t_set, comp3,
                                   2, 3) == set()
        assert type_two_repair_set(CutSearch(g), s, t_set, comp3,
                                   2, 3, 6) == set()
        assert type_three_repair_set(CutSearch(g), s, t_set, comp3,
                                     2, 3) == set()
        with pytest.raises(RejectedOp):
            repair_set(g, t2, g3, s, 2, 3, 5)
        with pytest.raises(RejectedOp):
            repair_set(g, t2, g3, s | {9}, 2, 3, 6)
        g9 = g.copy()
        g9.add_vertex(9)
        with pytest.raises(RejectedOp):
            repair_set(g9, t2, g3, s | {9}, 2, 3, 6)
        with pytest.raises(RejectedOp):
            repair_set(g, t2, g9, s | {9}, 2, 3, 6)


def _random_multigraph(rng):
    """A connected multigraph of 3-9 vertices with multiplicities 1-4,
    sometimes beside a second component of 3 more vertices."""
    n = rng.randrange(3, 10)
    base = random_connected_graph(rng, n, rng.randrange(0, n + 2))
    edges = [(u, v, rng.choice((1, 1, 2, 3, 4))) for u, v in base.edge_keys()]
    verts = list(range(n))
    if rng.random() < 0.25:
        verts += [n, n + 1, n + 2]
        edges += [(n, n + 1, rng.randrange(1, 5)), (n + 1, n + 2, 1)]
    return MultiGraph.from_edges(verts, edges)


def test_typed_set_certificates_are_exact_fuzz(monkeypatch):
    """Type one and type three give what they give with their emptiness
    certificates forced off (answering False), on random multigraphs with
    |S| of 1-4, T empty and not, c of 1-3, and t below and above |V|.  A
    certified type one is empty.  Both certificates hold and fail often
    enough to be tested, type one's on an S of two vertices or more."""
    rng = random.Random(101)
    unsplittable = repair._s_unsplittable
    one_small = repair._one_small_component
    seen = {"one": [0, 0], "three": [0, 0]}     # [certified, not]
    shapes = set()
    for _ in range(160):
        g = _random_multigraph(rng)
        verts = g.vertex_list()
        n = len(verts)
        s = frozenset(rng.sample(verts, rng.randrange(1, min(4, n) + 1)))
        rest = [v for v in verts if v not in s]
        t_set = frozenset(rng.sample(rest, rng.randrange(0, min(3, len(rest))
                                                         + 1)))
        c = rng.randrange(1, 4)
        t = rng.choice((rng.randrange(1, n), n + rng.randrange(0, 3)))
        g3 = g.copy()
        for u, v in rng.sample(g.edge_keys(), rng.randrange(0, 3)):
            g3.remove_edge(u, v)
        comp3 = component_labels(g3)
        w1 = type_one_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        w3 = type_three_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        if len(s) > 1:
            cert = unsplittable(g, s, c)
            seen["one"][not cert] += 1
            assert not (cert and w1)
        terms = s | t_set
        if len(terms) <= t:
            seen["three"][not one_small(g, terms, t)] += 1
        shapes.add((bool(t_set), t < n, c))
        with monkeypatch.context() as m:
            m.setattr(repair, "_s_unsplittable", lambda *args: False)
            m.setattr(repair, "_one_small_component", lambda *args: False)
            assert type_one_repair_set(CutSearch(g), s, t_set, comp3,
                                       c, t) == w1
            assert type_three_repair_set(CutSearch(g), s, t_set, comp3,
                                         c, t) == w3
    assert min(seen["one"]) >= 20 and min(seen["three"]) >= 20
    assert len(shapes) == 12


def test_one_small_component_matches_its_definition_fuzz():
    """The walk that stops once it has seen every terminal (when g has at
    most t vertices) answers what the whole component's size and vertex
    set answer, with t below and above |V(g)|, on connected and split
    graphs."""
    rng = random.Random(102)
    seen = [0, 0]
    for _ in range(300):
        g = _random_multigraph(rng)
        verts = g.vertex_list()
        n = len(verts)
        terms = frozenset(rng.sample(verts, rng.randrange(1, min(5, n) + 1)))
        t = rng.choice((rng.randrange(1, n + 1), n + rng.randrange(0, 3)))
        p = cutprimitives.component_of(g, min(terms))
        want = len(p) <= t and terms <= p
        assert repair._one_small_component(g, terms, t) == want
        seen[want] += 1
    assert min(seen) >= 50


def test_certified_repair_set_searches_nothing(monkeypatch):
    """A repair_set call whose typed sets are all certified empty (every
    pair of S joined by more than c edge-disjoint paths, T minus S empty,
    S in one component of at most t vertices) gives the empty set with its
    one CutSearch built but no simple-cut search run, no heavy-class
    quotient built and DS3 not labelled, and logs (|S|, 0, c).  When a
    certificate fails, the same spies see the searches run."""
    built, searched, quotients, labelled = [], [], [], []
    init = cutprimitives.CutSearch.__init__
    search = cutprimitives.enumerate_simple_cuts
    quotient = cutprimitives._heavy_quotient
    labels = repair.component_of

    def spy_init(self, g):
        built.append(g)
        init(self, g)

    def spy_search(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    def spy_quotient(g, c):
        quotients.append(c)
        return quotient(g, c)

    def spy_labels(g, *args):
        labelled.append(g)
        return labels(g, *args)

    monkeypatch.setattr(cutprimitives.CutSearch, "__init__", spy_init)
    monkeypatch.setattr(cutprimitives, "enumerate_simple_cuts", spy_search)
    monkeypatch.setattr(cutprimitives, "_heavy_quotient", spy_quotient)
    monkeypatch.setattr(repair, "component_of", spy_labels)
    # a 6-cycle of double edges: every pair is 4-edge connected
    g = MultiGraph.from_edges(range(6), [(i, (i + 1) % 6, 2)
                                         for i in range(6)])
    g3 = g.copy()
    g3.remove_edge(0, 1)
    for s, t2, c, t, certified in (({0, 2, 4}, {0, 2, 4}, 3, 6, True),
                                   ({3}, {3}, 1, 7, True),
                                   ({0, 3}, {0, 3}, 2, 6, True),
                                   ({0, 2, 4}, {0, 2, 4}, 4, 6, False),
                                   ({0, 2}, {0, 1, 2}, 2, 6, False),
                                   ({0, 2}, {0, 2}, 2, 5, False)):
        del built[:], searched[:], quotients[:], labelled[:]
        with repair.recording() as log:
            w = repair_set(g, t2, g3, s, c, t, 2 * t)
        assert len(built) == 1
        assert log == [(len(s), len(w), c)]
        if certified:
            assert w == set()
            assert not searched and not quotients and not labelled
        else:
            assert searched and quotients


# -- initial IA and verifier ----------------------------------------------

def test_initial_ia_trivial():
    g = path_graph(5)
    assert initial_ia(g, [], 2, 6, 1) == set()
    assert initial_ia(g, [3], 2, 6, 1) == set()


def test_initial_ia_p5_endpoints():
    g = path_graph(5)
    ia = initial_ia(g, [0, 4], 2, 6, 1)
    assert verify_ia(g, [0, 4], ia, IAParams(2, 6, 1, 1))


def test_initial_ia_fuzz_valid():
    rng = random.Random(37)
    for _ in range(12):
        g = _rand_graph(rng, 4, 11)
        t_verts = set(rng.sample(g.vertex_list(), rng.randrange(2, 4)))
        before = g.copy()
        ia = initial_ia(g, t_verts, 2, 6, 1)
        assert g == before
        assert verify_ia(g, t_verts, ia, IAParams(2, 6, 1, 1))
        assert len(ia) <= len(t_verts) * (24 + 24 + 4)


@pytest.mark.parametrize("edges,t_verts", [
    # {3} is a size-1 cut on its own side; the size-2 cut around {0} on the
    # other side of the same partition does not replace it
    ([(0, 1), (0, 2), (1, 2), (1, 3), (1, 5), (1, 6), (1, 7), (2, 4),
      (4, 5), (5, 6), (6, 7)], {0, 3}),
    # likewise {4} (edge (0, 4)) against the size-2 cut around {2}
    ([(0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (0, 9), (1, 3), (1, 5),
      (2, 6), (3, 8), (3, 9), (6, 7), (7, 8)], {2, 4}),
])
def test_initial_ia_depth_two_covers_both_terminal_sides(edges, t_verts):
    g = MultiGraph.from_edges(range(1 + max(map(max, edges))), edges)
    ia = initial_ia(g, t_verts, 2, 6, 2)
    assert verify_ia(g, t_verts, ia, IAParams(2, 6, 2, 1))


def test_verify_ia_rejects_bad_set():
    g = path_graph(5)
    ia = initial_ia(g, [0, 4], 2, 6, 1)
    assert ia, "expected a nonempty IA set on P5"
    bad = set(ia)
    bad.pop()
    assert not verify_ia(g, [0, 4], bad, IAParams(2, 6, 1, 1))


def test_verify_ia_empty_and_full():
    g = cycle_graph(4)
    # C4 has no cut of size <= 1, so the empty set passes for d=1
    assert verify_ia(g, [0, 2], set(), IAParams(1, 2, 1, 1))
    # full edge set: every cluster is a lone vertex
    assert verify_ia(g, [0, 2], set(g.edge_keys()), IAParams(2, 4, 2, 1))


def test_verify_ia_too_large_rejected():
    g = path_graph(20)
    with pytest.raises(RejectedOp):
        verify_ia(g, [0, 19], set(), IAParams(2, 6, 1, 1))


def test_layered_ia_composition_valid():
    rng = random.Random(41)
    for _ in range(6):
        g = _rand_graph(rng, 5, 10)
        t_verts = set(rng.sample(g.vertex_list(), 2))
        d = 2
        ia = layered_ia(g, t_verts, [(2, 6), (18, 54)], d)
        assert verify_ia(g, t_verts, ia.edges,
                         IAParams(2, 54 * (d + 1), d, 2))


def test_terminals_in_one_component_have_no_small_cut():
    # Claim: terminals left in one cluster admit no separating small cut
    rng = random.Random(43)
    for _ in range(10):
        g = _rand_graph(rng, 5, 11)
        t_verts = sorted(rng.sample(g.vertex_list(), 3))
        t, q, d = 2, 6, 1
        ia = initial_ia(g, t_verts, t, q, d)
        from dynacut.cutprimitives import components
        comps = components(g, banned_edges=set(ia))
        for comp in comps:
            inside = [x for x in t_verts if x in comp]
            if len(inside) < 2:
                continue
            x, y = inside[0], inside[1]
            # no (T',.,t,d)-cut may separate x from y
            for sub in itertools.combinations(sorted(g.vertex_list()),
                                              t):
                side = frozenset(sub)
                if len({x, y} & side) != 1:
                    continue
                tr = side & frozenset(t_verts)
                if not tr or tr == frozenset(t_verts):
                    continue
                assert cut_size(g, side) > d
