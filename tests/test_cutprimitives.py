import itertools
import random

from dynacut import cutprimitives
from dynacut.cutprimitives import (
    Cut,
    CutSearch,
    _capped_maxflow,
    _reachable,
    boundary,
    component_of,
    components,
    cut_size,
    enumerate_anchored_cuts,
    enumerate_cuts,
    enumerate_simple_cuts,
    induced_cut_side,
    induces_atomic_cut,
    intercepts,
    is_atomic_cut,
    is_connected_subset,
)
from dynacut.multigraph import MultiGraph, degree_reduce, edge_key

from util import barbell, complete_graph, cycle_graph, random_connected_graph


def _mg(edges):
    verts = sorted({v for e in edges for v in e[:2]})
    return MultiGraph.from_edges(verts, edges)


def _rand_graph(rng, lo, hi):
    n = rng.randrange(lo, hi)
    return random_connected_graph(rng, n, rng.randrange(0, n))


def brute_simple_cuts(g, x, c, t, excluded=()):
    """Every connected side of at most t vertices that holds x and no other
    vertex of `excluded`, with cut size <= c, by search over all subsets."""
    mult = {v: [(w, g.multiplicity(v, w)) for w in g.neighbors(v)]
            for v in g.vertex_list()}
    banned = set(excluded) - {x}
    others = [v for v in g.vertex_list() if v != x and v not in banned]
    out = set()
    for k in range(0, t):
        for extra in itertools.combinations(others, k):
            side = frozenset((x,) + extra)
            if sum(m for v in side for w, m in mult[v] if w not in side) > c:
                continue
            if is_connected_subset(g, side):
                out.add(side)
    return out


def brute_enumerate_cuts(g, t1, t2, tp, c, t):
    if len(tp) > t:
        return set()
    terms = set(t1) | set(t2)
    verts = g.vertex_list()
    out = set()
    for k in range(1, t + 1):
        for sub in itertools.combinations(verts, k):
            side = frozenset(sub)
            if side & terms != tp:
                continue
            if cut_size(g, side) > c:
                continue
            sub_g = _induced(g, side)
            if any(not (comp & tp) for comp in components(sub_g)):
                continue
            out.add(side)
    return out


def _induced(g, side):
    h = MultiGraph()
    for v in side:
        h.add_vertex(v)
    for (u, v), m in g.edge_items():
        if u in side and v in side:
            h.add_edge(u, v, m)
    return h


# -- intercepts ------------------------------------------------------------

def test_intercepts_empty_f_false():
    g = cycle_graph(5)
    cut = Cut.of(g, {0, 1})
    assert not intercepts(g, set(), cut)


def test_intercepts_barbell_bridge():
    g = barbell()
    # cut-set spanning both triangles: edges (0,1) and (3,4)
    f = {edge_key(2, 3)}
    assert intercepts(g, f, {edge_key(0, 1), edge_key(3, 4)})


def test_intercepts_f_superset_of_split_cutset():
    g = cycle_graph(4)
    cut = Cut.of(g, {0})  # cutset {(0,1),(0,3)}
    f = set(cut.cutset) | {edge_key(1, 2)}
    # removing f leaves 0 isolated from 1 and 3 in one piece, (0,1) split
    assert intercepts(g, f, cut)


def test_intercepts_accepts_cut_or_edges():
    g = barbell()
    cut = Cut.of(g, {0, 1, 2})
    assert intercepts(g, {edge_key(2, 3)}, cut)
    assert intercepts(g, {edge_key(2, 3)}, cut.cutset)


# -- Cut basics ------------------------------------------------------------

def test_cut_of_multiplicity_size():
    g = _mg([(0, 1, 3), (1, 2, 1)])
    cut = Cut.of(g, {0})
    assert cut.cutset == frozenset({(0, 1)})
    assert cut.size == 3
    assert is_connected_subset(g, cut.side)
    assert is_atomic_cut(g, cut.side)


def test_simple_but_not_atomic():
    g = cycle_graph(6)
    side = {0, 1}
    assert is_connected_subset(g, side)
    assert is_atomic_cut(g, side)
    # complement of {0, 3} is disconnected, side itself disconnected too
    assert not is_connected_subset(g, {0, 3})
    assert not is_atomic_cut(g, {0, 3})


# -- induces_atomic_cut ----------------------------------------------------

def test_atomic_verify_c4_opposite_edges():
    g = cycle_graph(4)
    before = g.copy()
    assert induces_atomic_cut(CutSearch(g), {edge_key(0, 1), edge_key(2, 3)})
    assert g == before


def test_atomic_verify_c4_single_edge():
    assert not induces_atomic_cut(CutSearch(cycle_graph(4)), {edge_key(0, 1)})


def test_atomic_verify_star_two_edges():
    g = _mg([(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert not induces_atomic_cut(CutSearch(g),
                                  {edge_key(0, 1), edge_key(0, 2)})


def test_atomic_verify_cross_component_false():
    g = _mg([(0, 1, 1), (2, 3, 1)])
    assert not induces_atomic_cut(CutSearch(g), {(0, 1), (2, 3)})


def test_atomic_verify_pair_across_components_false():
    """A pair that is no edge of g and joins two components names no cut,
    though removing it leaves exactly two pieces."""
    g = _mg([(0, 1, 1), (2, 3, 1)])
    assert not induces_atomic_cut(CutSearch(g), {(1, 2)})
    assert induces_atomic_cut(CutSearch(g), {(0, 1)})


def test_atomic_verify_absent_endpoint_false():
    g = cycle_graph(4)
    assert not induces_atomic_cut(CutSearch(g), {(7, 8)})
    assert not induces_atomic_cut(CutSearch(g), {(0, 1), (2, 9)})


def _brute_induces_atomic_cut(g, e0):
    comp = sorted(component_of(g, min(min(e) for e in e0)))
    root, rest = comp[0], comp[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = {root, *extra}
            if boundary(g, side) == e0 and is_atomic_cut(g, side, set(comp)):
                return True
    return False


def test_induces_atomic_cut_matches_brute_force_fuzz():
    rng = random.Random(7)
    for _ in range(40):
        g = _rand_graph(rng, 4, 9)
        keys = [k for k, _ in g.edge_items()]
        e0 = frozenset(rng.sample(keys,
                                  rng.randrange(1, min(4, len(keys)) + 1)))
        assert (induces_atomic_cut(CutSearch(g), e0)
                == _brute_induces_atomic_cut(g, e0))


# -- enumerate_simple_cuts -------------------------------------------------

def test_enumerate_k2():
    g = _mg([(0, 1, 1)])
    assert enumerate_simple_cuts(CutSearch(g), 0, 1, 1) == {frozenset({0})}


def test_enumerate_c4():
    g = cycle_graph(4)
    got = enumerate_simple_cuts(CutSearch(g), 0, 2, 2)
    assert got == {frozenset({0}), frozenset({0, 1}), frozenset({0, 3})}
    assert len(got) <= 2 ** 2


def test_enumerate_ring_of_cliques_empty():
    # ring of (2c+1)-cliques for c=2: every cut has size > c
    c = 2
    k = 2 * c + 1
    g = MultiGraph()
    n_cliques = 4
    for i in range(n_cliques):
        base = i * k
        for u, v in itertools.combinations(range(base, base + k), 2):
            if not g.has_vertex(u):
                g.add_vertex(u)
            if not g.has_vertex(v):
                g.add_vertex(v)
            g.add_edge(u, v)
    for i in range(n_cliques):
        base = i * k
        nxt = ((i + 1) % n_cliques) * k
        for j in range(c):
            g.add_edge(base + j, nxt + j)
    assert enumerate_simple_cuts(CutSearch(g), 2, c, 5) == set()


def test_enumerate_matches_bruteforce_fuzz():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randrange(3, 15)
        g = random_connected_graph(rng, n, rng.randrange(0, n))
        x = rng.randrange(n)
        c = rng.randrange(1, 4)
        t = rng.randrange(1, 6)
        got = enumerate_simple_cuts(CutSearch(g), x, c, t)
        assert got == brute_simple_cuts(g, x, c, t)
        assert len(got) <= t ** c


def test_enumerate_bound_with_multiplicities():
    g = _mg([(0, 1, 2), (1, 2, 1), (2, 0, 1)])
    got = enumerate_simple_cuts(CutSearch(g), 0, 2, 2)
    # {0} has size 3, excluded; {0,1} has boundary mult 2
    assert got == {frozenset({0, 1})}


# -- enumeration across edges heavier than the budget ----------------------

def _query_image(rng, n, c):
    """The degree-reduced image of a random connected n-vertex graph, with a
    multiplicity-(c+1) pendant on one anchor, as a query attaches it, and up
    to two random image edges deleted."""
    img = degree_reduce(random_connected_graph(rng, n, rng.randrange(0, 3)),
                        c)
    g = img.multigraph
    g.add_vertex(-1)
    g.add_edge(-1, img.anchor(rng.randrange(n)), c + 1)
    for _ in range(rng.randrange(0, 3)):
        g.remove_edge(*rng.choice(g.edge_keys()))
    return g


def test_enumerate_on_gadget_images_matches_bruteforce_fuzz():
    """Gadget path edges and the pendant are heavier than the budget; the
    random `excluded` sets often hold x itself."""
    rng = random.Random(61)
    multi_vertex = 0
    for trial in range(80):
        c = rng.randrange(1, 4)
        g = _query_image(rng, rng.randrange(3, 5), c)
        verts = g.vertex_list()
        x = rng.choice(verts)
        excluded = set(rng.sample(verts, rng.randrange(0, 3)))
        if rng.random() < 0.5:
            excluded.add(x)
        for t in (3, len(verts)):
            got = enumerate_simple_cuts(CutSearch(g), x, c, t, excluded)
            assert got == brute_simple_cuts(g, x, c, t, excluded), (trial, t)
            multi_vertex += sum(len(side) > 1 for side in got)
    assert multi_vertex > 0


def test_enumerate_heavy_class_of_x_larger_than_t():
    # 0-1 is heavier than c, so every side holds both
    g = _mg([(0, 1, 3), (1, 2, 1), (2, 0, 1)])
    assert enumerate_simple_cuts(CutSearch(g), 0, 2, 1) == set()
    assert enumerate_simple_cuts(CutSearch(g), 0, 2, 2) == {frozenset({0, 1})}


def test_enumerate_excluded_heavy_neighbor_of_x():
    g = _mg([(0, 1, 3), (1, 2, 1), (2, 0, 1)])
    assert enumerate_simple_cuts(CutSearch(g), 0, 2, 3,
                                 excluded={0, 1}) == set()
    assert enumerate_simple_cuts(CutSearch(g), 0, 2, 3, excluded={0, 2}) == \
        {frozenset({0, 1})}
    assert enumerate_simple_cuts(CutSearch(g), 0, 2, 3, excluded={0, 7}) == \
        {frozenset({0, 1}), frozenset({0, 1, 2})}


def test_anchored_cuts_two_anchors_in_one_heavy_class():
    # every side holding anchor 1 holds anchor 0, so all are tagged 0
    g = _mg([(0, 1, 3), (1, 2, 1), (2, 0, 1), (2, 3, 1)])
    assert enumerate_anchored_cuts(CutSearch(g), [1, 0], 2, 4) == [
        (0, frozenset({0, 1})),
        (0, frozenset({0, 1, 2})),
        (0, frozenset({0, 1, 2, 3})),
    ]
    assert enumerate_simple_cuts(CutSearch(g), 1, 2, 4, excluded=[0]) == set()


# -- enumerate_cuts --------------------------------------------------------

def test_enumerate_cuts_large_tprime_empty():
    g = cycle_graph(4)
    assert enumerate_cuts(CutSearch(g), {0, 1, 2}, {0, 1, 2}, 4, 2) == set()


def test_enumerate_cuts_c4_opposite_terminals():
    g = cycle_graph(4)
    got = enumerate_cuts(CutSearch(g), {0, 2}, {0, 2}, 4, 2)
    assert frozenset({0, 2}) in got


def test_enumerate_cuts_matches_bruteforce_fuzz():
    rng = random.Random(23)
    for trial in range(25):
        n = rng.randrange(4, 13)
        g = random_connected_graph(rng, n, rng.randrange(0, n))
        t1 = set(rng.sample(range(n), rng.randrange(1, 4)))
        t2 = set(rng.sample(range(n), rng.randrange(0, 3)))
        terms = sorted(t1 | t2)
        tp = frozenset(rng.sample(terms, rng.randrange(1, len(terms) + 1)))
        before = g.copy()
        got = enumerate_cuts(CutSearch(g), t1 | t2, tp, 2, 3)
        assert got == brute_enumerate_cuts(g, t1, t2, tp, 2, 3)
        assert g == before


# -- Appendix properties ---------------------------------------------------

def _random_bipartition(rng, g):
    verts = g.vertex_list()
    k = rng.randrange(1, len(verts))
    return frozenset(rng.sample(verts, k))


def _parallel(g, s1, s2):
    verts = frozenset(g.vertex_list())
    for a in (s1, verts - s1):
        for b in (s2, verts - s2):
            if a <= b:
                return True
    return False


def test_atomic_nonparallel_interception():
    rng = random.Random(41)
    hits = 0
    while hits < 200:
        g = _rand_graph(rng, 4, 10)
        verts = frozenset(g.vertex_list())
        s1 = _random_bipartition(rng, g)
        if not is_atomic_cut(g, s1, universe=set(verts)):
            continue
        s2 = _random_bipartition(rng, g)
        if _parallel(g, s1, s2):
            continue
        assert intercepts(g, boundary(g, s1), Cut.of(g, s2))
        hits += 1


def test_nonparallel_mutual_interception():
    rng = random.Random(43)
    hits = 0
    while hits < 200:
        g = _rand_graph(rng, 4, 10)
        s1 = _random_bipartition(rng, g)
        s2 = _random_bipartition(rng, g)
        if _parallel(g, s1, s2):
            continue
        assert (intercepts(g, boundary(g, s1), Cut.of(g, s2))
                or intercepts(g, boundary(g, s2), Cut.of(g, s1)))
        hits += 1


def test_cut_side_component_count():
    rng = random.Random(47)
    hits = 0
    while hits < 200:
        g = _rand_graph(rng, 4, 11)
        side = _random_bipartition(rng, g)
        c = cut_size(g, side)
        n_comp = len(components(_induced(g, side)))
        assert n_comp <= c
        hits += 1


def test_swapping_lemma():
    rng = random.Random(53)
    hits = 0
    while hits < 200:
        n = rng.randrange(5, 11)
        g = random_connected_graph(rng, n, rng.randrange(0, n))
        terms = frozenset(rng.sample(range(n), rng.randrange(2, n)))
        v1 = _random_bipartition(rng, g)
        v2 = _random_bipartition(rng, g)
        t1, t2 = v1 & terms, v2 & terms
        if t1 & t2:
            continue
        v1p = v1 - (v1 & v2)
        v2p = v2 - (v1 & v2)
        verts = frozenset(g.vertex_list())
        if not v1p or not v2p or v1p == verts or v2p == verts:
            continue
        assert v1p & terms == t1 and v2p & terms == t2
        b1, b2 = boundary(g, v1), boundary(g, v2)
        b1p, b2p = boundary(g, v1p), boundary(g, v2p)
        assert b1p <= (b1 | b2) and b2p <= (b1 | b2)
        s1, s2 = cut_size(g, v1), cut_size(g, v2)
        s1p, s2p = cut_size(g, v1p), cut_size(g, v2p)
        assert s1p < s1 or s2p < s2 or (s1p == s1 and s2p == s2)
        hits += 1


# -- one shared search per graph --------------------------------------------

def _heavy_graph(rng):
    """A connected multigraph whose multiplicities reach above every c
    tried, sometimes with a second component."""
    base = _rand_graph(rng, 4, 11)
    edges = [(u, v, rng.choice((1, 1, 1, 2, 3, 4)))
             for u, v in base.edge_keys()]
    if rng.random() < 0.3:
        n = base.vertex_count()
        edges += [(n, n + 1, 1), (n + 1, n + 2, rng.randrange(1, 5))]
    return _mg(edges)


def _random_ball(rng, g):
    """A connected side of 1-4 vertices grown from a random vertex."""
    verts = g.vertex_list()
    ball = {rng.choice(verts)}
    for _ in range(rng.randrange(0, 4)):
        ball.add(rng.choice([w for v in ball for w in g.neighbors(v)]
                            or verts))
    return ball


def _random_e0(rng, g):
    """The boundary of a random ball half the time, else 1-3 random edges;
    either may be listed with endpoints reversed."""
    if rng.random() < 0.5:
        e0 = list(boundary(g, _random_ball(rng, g))) or g.edge_keys()[:1]
    else:
        e0 = rng.sample(g.edge_keys(), min(rng.randrange(1, 4),
                                          g.distinct_edge_count()))
    return [(v, u) if rng.random() < 0.3 else (u, v) for u, v in e0]


def _atomic_boundary_subsets(g, side):
    """The nonempty subsets of the sorted boundary of `side`, by size, that
    induce an atomic cut, each tested on a fresh CutSearch."""
    es = sorted(boundary(g, side))
    return [frozenset(e) for r in range(1, len(es) + 1)
            for e in itertools.combinations(es, r)
            if induces_atomic_cut(CutSearch(g), e)]


def test_shared_search_matches_fresh_calls_fuzz():
    """On one CutSearch per graph, every call, made in random order and
    some twice, equals the same call on a fresh CutSearch: the simple-cut,
    anchored and T'-cut enumerations, the atomic-cut tests, boundaries and
    the atomic boundary subsets of a connected side, on multigraphs with
    edges heavier than c, terminals and `excluded` sets.  A repeated
    atomic_subsets call returns the same object.  After each simple-cut
    ask, a narrower one on the same x (c' <= c, t' <= t, excluded' a
    superset), which that ask covers, equals a fresh search, and a repeat
    of it returns the same object.  Every side the enumerations return has
    the cut size of the oracle on the search."""
    rng = random.Random(67)
    narrow = random.Random(68)
    seen = {"sides": 0, "atomic": 0, "not_atomic": 0, "subsets": 0,
            "narrower": 0}
    for _ in range(40):
        g = _heavy_graph(rng)
        verts = g.vertex_list()
        calls = []
        for _ in range(30):
            c, t = rng.randrange(1, 4), rng.randrange(1, len(verts) + 1)
            kind = rng.randrange(7)
            if kind == 0:
                x = rng.choice(verts)
                excluded = rng.sample(verts, rng.randrange(0, 4))
                calls.append((enumerate_simple_cuts, (x, c, t, excluded)))
            elif kind == 1:
                anchors = rng.sample(verts, rng.randrange(1, 4))
                calls.append((enumerate_anchored_cuts, (anchors, c, t)))
            elif kind == 2:
                terms = rng.sample(verts, rng.randrange(1, 5))
                tp = rng.sample(terms, rng.randrange(1, len(terms) + 1))
                calls.append((enumerate_cuts, (terms, tp, c, t)))
            elif kind == 3:
                calls.append((induces_atomic_cut, (_random_e0(rng, g),)))
            elif kind == 4:
                inner = rng.sample(verts, rng.randrange(1, 4))
                calls.append((induced_cut_side, (_random_e0(rng, g), inner)))
            elif kind == 5:
                calls.append((boundary, (rng.sample(verts, 3),)))
            else:
                calls.append((_atomic_boundary_subsets,
                              (_random_ball(rng, g),)))
        calls += rng.sample(calls, 10)
        rng.shuffle(calls)
        cs = CutSearch(g)
        for fn, args in calls:
            if fn in (boundary, _atomic_boundary_subsets):
                want = fn(g, *args)
            else:
                want = fn(CutSearch(g), *args)
            if fn is boundary:
                assert cs.boundary(*args) == want
                continue
            if fn is _atomic_boundary_subsets:
                got = cs.atomic_subsets(*args)
                assert list(got) == want, args
                assert cs.atomic_subsets(*args) is got
                seen["subsets"] += len(want)
                continue
            assert fn(cs, *args) == want, (fn.__name__, args)
            if fn is induces_atomic_cut:
                seen["atomic" if want else "not_atomic"] += 1
            if fn is enumerate_simple_cuts:
                assert cs.simple_cuts(*args) == want
                seen["sides"] += len(want)
                x, c, t, excluded = args
                c2, t2 = narrow.randrange(1, c + 1), narrow.randrange(t + 1)
                excluded2 = excluded + narrow.sample(verts,
                                                     narrow.randrange(3))
                fresh = enumerate_simple_cuts(CutSearch(g), x, c2, t2,
                                              excluded2)
                got = cs.simple_cuts(x, c2, t2, excluded2)
                assert got == fresh, (args, c2, t2, excluded2)
                assert cs.simple_cuts(x, c2, t2, excluded2) is got
                seen["narrower"] += len(fresh)
                sides = want | fresh
            elif fn is enumerate_anchored_cuts:
                sides = {side for _, side in want}
            elif fn is enumerate_cuts:
                sides = want
            else:
                continue
            for side in sides:
                assert cs.cut_size(side) == cut_size(g, side), side
    assert all(n > 20 for n in seen.values()), seen


def test_piece_matches_reachable_fuzz():
    """CutSearch.piece, walked on a heavy-class quotient, is x's component
    of g minus e0 however e0 is given: with edges of multiplicity above 1,
    reversed endpoints, pairs that are not edges of g, or empty.  Every
    vertex of a piece gets the same object back."""
    rng = random.Random(71)
    seen = {"heavy": 0, "absent": 0, "empty": 0, "split": 0}
    for _ in range(60):
        g = _heavy_graph(rng)
        verts = g.vertex_list()
        cs = CutSearch(g)
        for _ in range(8):
            kind = rng.randrange(4)
            e0 = [] if kind == 0 else _random_e0(rng, g)
            if kind == 1:
                e0.append(tuple(rng.sample(verts + [max(verts) + 1], 2)))
            e0 = frozenset(e0)
            seen["empty"] += not e0
            seen["heavy"] += any(g.multiplicity(u, v) > 1 for u, v in e0)
            seen["absent"] += any(not g.has_edge(u, v) for u, v in e0)
            for x in verts:
                p = cs.piece(e0, x)
                assert p == frozenset(_reachable(g, x, e0)), (e0, x)
                assert all(cs.piece(e0, y) is p for y in p)
                seen["split"] += p != cs.piece(frozenset(), x)
    assert all(n > 20 for n in seen.values()), seen


def test_sides_meeting_s_and_p_fuzz():
    """The type-one candidates of a held pair with side P are the sides of
    the anchored enumeration over S that meet P: the family the anchored
    enumeration over P gives, restricted to the sides that meet S."""
    rng = random.Random(73)
    found = 0
    for _ in range(60):
        g = _heavy_graph(rng)
        verts = g.vertex_list()
        cs = CutSearch(g)
        s = set(rng.sample(verts, rng.randrange(1, 4)))
        for _ in range(5):
            p = frozenset(rng.sample(verts, rng.randrange(1, 5)))
            c, t = rng.randrange(1, 4), rng.randrange(1, len(verts) + 2)
            want = {side for _, side
                    in enumerate_anchored_cuts(CutSearch(g), p, c, t)
                    if side & s}
            got = {side for _, side in enumerate_anchored_cuts(cs, s, c, t)
                   if side & p}
            assert got == want, (s, p, c, t)
            found += len(want)
    assert found > 200


def test_budgets_past_vertex_count_share_one_search(monkeypatch):
    """Two budgets t, q >= |V(g)| give one simple-cut search on a
    CutSearch, and its sides are what enumerate_simple_cuts gives under
    either budget."""
    run = cutprimitives.enumerate_simple_cuts
    budgets = []

    def spy(cs, x, c, t, excluded=()):
        budgets.append(t)
        return run(cs, x, c, t, excluded)

    monkeypatch.setattr(cutprimitives, "enumerate_simple_cuts", spy)
    rng = random.Random(79)
    found = 0
    for _ in range(40):
        g = _heavy_graph(rng)
        verts, n = g.vertex_list(), g.vertex_count()
        x, c = rng.choice(verts), rng.randrange(1, 4)
        t, q = n + rng.choice((0, 1, 5)), rng.choice((n, n + 2, 10 ** 24))
        excluded = rng.sample(verts, rng.randrange(0, 3))
        cs = CutSearch(g)
        del budgets[:]
        sides = cs.simple_cuts(x, c, t, excluded)
        assert cs.simple_cuts(x, c, q, excluded) is sides
        assert budgets == [n]
        assert sides == run(CutSearch(g), x, c, t, excluded) == \
            run(CutSearch(g), x, c, q, excluded)
        found += len(sides)
    assert found > 40


def _brute_lambda(g, x, y):
    """The least multiplicity-weighted cut between x and y over every
    vertex side holding x and not y (0 across components)."""
    rest = [v for v in g.vertex_list() if v not in (x, y)]
    return min(cut_size(g, {x, *extra}) for r in range(len(rest) + 1)
               for extra in itertools.combinations(rest, r))


def test_capped_maxflow_matches_brute_force_on_multigraphs():
    """_capped_maxflow(g, x, y, cap) is min(cap, lambda(x, y)), edges
    weighted by multiplicity, at caps c and c + 1, on multigraphs with
    edges heavier than the cap and with a second component; the flow
    leaves g as it was."""
    rng = random.Random(97)
    below = at_cap = 0
    for _ in range(60):
        g = _heavy_graph(rng)
        before = sorted(g.edge_items())
        x, y = rng.sample(g.vertex_list(), 2)
        lam = _brute_lambda(g, x, y)
        for c in (1, 2, 3):
            for cap in (c, c + 1):
                assert _capped_maxflow(g, x, y, cap) == min(cap, lam)
                assert _capped_maxflow(g, y, x, cap) == min(cap, lam)
                below += lam < cap
                at_cap += lam >= cap
        assert sorted(g.edge_items()) == before
    assert below > 40 and at_cap > 40
