"""Acceptance suite: full-scale runs of every headline property.

Each test here re-checks one of the contract-level guarantees at the
agreed sample sizes: end-to-end oracle equivalence over a thousand random
traces, the proven combinatorial size bounds of the repair machinery and
of contraction, cut enumeration against subset brute force, scheduler
equivalence with the batch-lattice reference executor, work smoothing, the
randomized cut property suite, degree reduction, and the closed-form
parameter tables.
"""

import itertools
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from dynacut import repair
from dynacut.connectivity import edge_connectivity, offline_oracle
from dynacut.cutpartition import build_sparsifier, cut_partition_preprocess
from dynacut.cutprimitives import (
    Cut, CutSearch, boundary, component_labels, components, cut_size,
    enumerate_simple_cuts, intercepts, is_atomic_cut, is_connected_subset,
)
from dynacut.harness import gen_workload, run_trace
from dynacut.multigraph import MultiGraph, degree_reduce, induced_subgraph
from dynacut.multilevel import make_schedule, strength_chain
from dynacut.repair import (
    IAParams, bipartition_system, initial_ia, layered_ia, repair_set,
    type_one_repair_set, type_two_repair_set, type_three_repair_set,
    verify_ia,
)

from test_cutprimitives import brute_simple_cuts
from test_onlinebatch import (
    PAIRS, CounterDS, MultiLevelMock, SortedEdgeListDS, drive, op_stream,
)
from test_repair import _repair_scenario
from util import (default_params, partition_sparsifier,
                  random_connected_graph, random_simple_graph)


# -- 1. end-to-end oracle equivalence over 1,000 random traces ---------------

def test_oracle_equivalence_flagship():
    """Every query in 1,000 random traces (n <= 16, <= 500 ops,
    c in {1,2,3}) must match the capped max-flow oracle exactly."""
    rng = random.Random(1000)
    for i in range(1000):
        if i < 3:
            n, ops, c = 16, 500, i + 1      # one full-size trace per c
        else:
            c = rng.choice((1, 1, 2, 2, 3))
            n = rng.randint(4, 16)
            ops = rng.randint(20, 70)
        lines = gen_workload(n, ops, seed=i, query_rate=0.12)
        status = run_trace(None, c, oracle_check=True, lines=lines)
        assert status == 0, f"trace {i} mismatched (n={n}, c={c}, ops={ops})"


# -- 2. repair-set size bounds ----------------------------------------------

def test_repair_set_size_bounds():
    """|W| <= |S|(24c^3+24c^2+4c) on every construction; the three typed
    subsets obey their individual bounds."""
    rng = random.Random(202)
    done = 0
    while done < 25:
        scen = _repair_scenario(rng, c=1)
        if scen is None:
            continue
        g, s, t_set, ia2, ia3, layers, d = scen
        c, t, q = 1, 2, 8
        h = g.copy()
        for u, v in ia2:
            h.remove_edge(u, v)
        comp3 = component_labels(h)
        w1 = type_one_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        w2 = type_two_repair_set(CutSearch(g), s, t_set, comp3, c, t, q)
        w3 = type_three_repair_set(CutSearch(g), s, t_set, comp3, c, t)
        ns = len(s)
        assert len(w1) <= ns * (16 * c ** 3 + 16 * c ** 2 + 2 * c)
        assert len(w2) <= ns * (4 * c ** 3 + 4 * c ** 2)
        assert len(w3) <= ns * (4 * c ** 3 + 4 * c ** 2 + 2 * c)
        w = repair_set(g, set(s) | set(t_set), h, s, c, t, q)
        assert len(w) <= ns * (24 * c ** 3 + 24 * c ** 2 + 4 * c)
        done += 1


def test_repair_set_bounds_inside_engine():
    """Every repair_set invocation triggered by real engine traces stays
    within the union bound (sizes are journaled by the repair module)."""
    checked = 0
    for seed in range(8):
        lines = gen_workload(10, 50, seed=900 + seed, query_rate=0.25)
        with repair.recording() as log:
            assert run_trace(None, 2, oracle_check=True, lines=lines) == 0
        for s_size, w_size, c in log:
            assert w_size <= s_size * (24 * c ** 3 + 24 * c ** 2 + 4 * c)
            checked += 1
    assert checked > 0


# -- 3. cut enumeration: bound and brute-force equality ----------------------

def test_cut_enumeration_matches_brute_force():
    """enumerate_simple_cuts returns at most t^c sides and exactly the
    subset-brute-force answer for n <= 14, c <= 3, t <= 5."""
    rng = random.Random(303)
    for i in range(150):
        n = rng.randint(4, 14)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        c = rng.randint(1, 3)
        t = rng.randint(2, 5)
        x = rng.choice(g.vertex_list())
        got = enumerate_simple_cuts(CutSearch(g), x, c, t)
        assert len(got) <= t ** c
        assert got == brute_simple_cuts(g, x, c, t), (i, n, c, t)


# -- 4. bipartition-system size --------------------------------------------

def test_bipartition_system_size_bound():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(5, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        s = set(rng.sample(g.vertex_list(), rng.randint(2, min(6, n))))
        c = rng.randint(1, 2)
        bs = bipartition_system(CutSearch(g), s, c, rng.randint(3, 5))
        assert len(bs.pairs) <= 2 * (len(s) - 1)


# -- 5. contraction size and connectivity -----------------------------------

def test_contraction_size_and_connectivity():
    """Contracted partition graphs keep |V| <= 2K and |E| <= 2K + |B| for
    the B boundary edges with K endpoints (so at most 4|B| and 5|B|), and
    preserve connectivity among retained vertices, over 500 random
    instances."""
    rng = random.Random(505)
    for _ in range(500):
        n = rng.randint(4, 15)
        g = random_simple_graph(rng, n, rng.uniform(0.15, 0.5))
        k = rng.randint(1, 4)
        coarse = [set() for _ in range(k)]
        for v in range(n):
            coarse[rng.randrange(k)].add(v)
        # each class must induce a connected subgraph
        partition = [set(comp) for p in coarse if p
                     for comp in components(induced_subgraph(g, p))]
        cg = partition_sparsifier(g, partition)
        owner = {v: i for i, p in enumerate(partition) for v in p}
        bnd = [(u, v) for (u, v), _ in g.edge_items()
               if owner[u] != owner[v]]
        k = len({v for e in bnd for v in e})
        assert cg.vertex_count() <= 2 * k
        assert cg.distinct_edge_count() <= 2 * k + len(bnd)
        comp = {v: frozenset(c) for c in components(g) for v in c}
        ccomp = {v: frozenset(c) for c in components(cg) for v in c}
        for u, v in itertools.combinations(cg.vertex_list(), 2):
            assert (comp[u] == comp[v]) == (ccomp[u] == ccomp[v])


# -- 6. one-level sparsifier equivalence -------------------------------------

def test_sparsifier_equivalence():
    """On 500 instances the one-level sparsifier preserves min(c, lambda)
    for every boundary-vertex pair and keeps |V| <= 2K and |E| <= 2K + |B|
    for the B edges it keeps verbatim (those missing from the final layer)
    with K endpoints."""
    rng = random.Random(606)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(5, 10),
                                   rng.randint(0, 6))
        c = rng.choice((1, 2))
        phi = Fraction(1, 3)
        t = max(int(c / phi) + 1, 3)
        ods = cut_partition_preprocess(g, phi, default_params(t, c), c + 1)
        sp = build_sparsifier(ods)
        kept = {e for e in g.edge_keys()
                if not ods.layers[-1].g.has_edge(*e)}
        k = len({v for e in kept for v in e})
        assert sp.vertex_count() <= 2 * k
        assert sp.distinct_edge_count() <= 2 * k + len(kept)
        bnd = {e for e in g.edge_keys()
               if not ods.layers[0].g.has_edge(*e)}
        terms = sorted({v for e in bnd for v in e})
        for x, y in itertools.combinations(terms, 2):
            assert edge_connectivity(g, x, y, c) == \
                edge_connectivity(sp, x, y, c)


# -- 7. IA validity of every produced set ------------------------------------

def test_ia_verifier_accepts_produced_sets():
    """Every per-layer difference and every composed union built by the
    layered constructors passes the exhaustive validity check."""
    rng = random.Random(707)
    done = 0
    while done < 20:
        g = random_connected_graph(rng, rng.randint(4, 10),
                                   rng.randint(0, 5))
        t_verts = set(rng.sample(g.vertex_list(), 2))
        d = 2
        ia = layered_ia(g, t_verts, [(2, 6), (18, 54)], d)
        # each layer alone, on the graph with earlier layers removed
        h = g.copy()
        terms = set(t_verts)
        for i, (layer, t_i, q_i) in enumerate(ia.derivation):
            assert verify_ia(h, terms, layer,
                             IAParams(t_i, q_i, max(d - i, 1), 1))
            terms |= {v for e in layer for v in e}
            for u, v in layer:
                h.remove_edge(u, v)
        # the composed union
        assert verify_ia(g, t_verts, ia.edges, ia.params)
        done += 1
    done = 0
    while done < 20:
        g = random_connected_graph(rng, rng.randint(4, 12),
                                   rng.randint(0, 6))
        t_verts = set(rng.sample(g.vertex_list(), rng.randint(2, 3)))
        ia = initial_ia(g, t_verts, 2, 6, 1)
        assert verify_ia(g, t_verts, ia, IAParams(2, 6, 1, 1))
        done += 1


def test_ia_validity_restored_by_repair():
    rng = random.Random(717)
    done = 0
    while done < 8:
        scen = _repair_scenario(rng, c=1, n_lo=6, n_hi=11)
        if scen is None:
            continue
        g, s, t_set, ia2, ia3, layers, d = scen
        c, t, q = 1, 2, 8
        h = g.copy()
        for u, v in ia2:
            h.remove_edge(u, v)
        w = repair_set(g, set(s) | set(t_set), h, s, c, t, q)
        assert verify_ia(g, set(s) | set(t_set), set(ia3) | w,
                         IAParams(t, q + t, c, 1))
        done += 1


# -- 8. scheduler vs. reference executor -------------------------------------

@pytest.mark.parametrize("xi,w", PAIRS)
@pytest.mark.parametrize("factory", [CounterDS, SortedEdgeListDS,
                                     MultiLevelMock])
def test_scheduler_matches_reference(factory, xi, w):
    """200-update runs: the scheduler's served instance equals the batch
    lattice reference at every step; each served instance absorbed at most
    xi batches of at most w updates."""
    rng = random.Random(808 + xi)
    g0 = random_connected_graph(rng, 6, 4)
    ops = op_stream(rng, g0.copy(), 200)
    sched = drive(factory, g0, ops, xi, w)
    audit = sched.batch_count_audit()
    assert audit["serves"] == 200
    assert audit["max_batches"] <= xi
    assert audit["max_batch_size"] <= w


# -- 9. work smoothing -------------------------------------------------------

@pytest.mark.parametrize("xi,w", PAIRS)
def test_work_smoothing_bound(xi, w):
    """Measured per-update work stays under 8*4^xi(T_pre/w + w^{1/xi}
    T_amort) with instrumented step counters."""
    rng = random.Random(909 + xi)
    g0 = random_connected_graph(rng, 7, 5)
    ops = op_stream(rng, g0.copy(), 200)
    sched = drive(CounterDS, g0, ops, xi, w)
    stats = sched.work_stats()
    t_pre = sched.preprocess_steps
    t_amort = 2                       # CounterDS charges len(seq)+1 a batch
    bound = 8 * 4 ** xi * (t_pre / w + w ** (1 / xi) * t_amort)
    observed = stats["max_steps_per_update"]
    assert observed <= bound, \
        f"observed/bound ratio {observed / bound:.3f} (xi={xi}, w={w})"


# -- 10. randomized cut property suite (10,000 instances each) ---------------

N_PROPERTY = 10_000


def _rand_graph(rng, lo, hi):
    n = rng.randint(lo, hi)
    return random_connected_graph(rng, n, rng.randint(0, n))


def _bipartition(rng, g):
    verts = g.vertex_list()
    return frozenset(rng.sample(verts, rng.randrange(1, len(verts))))


def _parallel(g, s1, s2):
    verts = frozenset(g.vertex_list())
    return any(a <= b for a in (s1, verts - s1) for b in (s2, verts - s2))


def test_property_atomic_cut_intercepts_nonparallel():
    rng = random.Random(111)
    hits = 0
    while hits < N_PROPERTY:
        g = _rand_graph(rng, 4, 9)
        s1 = _bipartition(rng, g)
        if not is_atomic_cut(g, s1, universe=set(g.vertex_list())):
            continue
        s2 = _bipartition(rng, g)
        if _parallel(g, s1, s2):
            continue
        assert intercepts(g, boundary(g, s1), Cut.of(g, s2))
        hits += 1


def test_property_nonparallel_mutual_interception():
    rng = random.Random(222)
    hits = 0
    while hits < N_PROPERTY:
        g = _rand_graph(rng, 4, 9)
        s1 = _bipartition(rng, g)
        s2 = _bipartition(rng, g)
        if _parallel(g, s1, s2):
            continue
        assert (intercepts(g, boundary(g, s1), Cut.of(g, s2))
                or intercepts(g, boundary(g, s2), Cut.of(g, s1)))
        hits += 1


def test_property_cut_side_component_count():
    rng = random.Random(333)
    for _ in range(N_PROPERTY):
        g = _rand_graph(rng, 4, 10)
        side = _bipartition(rng, g)
        c = cut_size(g, side)
        assert len(components(induced_subgraph(g, side))) <= c


def test_property_swapping():
    """Removing the overlap from two terminal-disjoint cut sides keeps the
    terminal partitions and boundary containment, and the pair of cut sizes
    can only shrink or stay (sum preserved)."""
    rng = random.Random(444)
    hits = 0
    while hits < N_PROPERTY:
        n = rng.randint(5, 10)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        terms = frozenset(rng.sample(range(n), rng.randint(2, n - 1)))
        v1 = _bipartition(rng, g)
        v2 = _bipartition(rng, g)
        t1, t2 = v1 & terms, v2 & terms
        if t1 & t2:
            continue
        v1p, v2p = v1 - (v1 & v2), v2 - (v1 & v2)
        verts = frozenset(g.vertex_list())
        if not v1p or not v2p or v1p == verts or v2p == verts:
            continue
        assert v1p & terms == t1 and v2p & terms == t2
        b1, b2 = boundary(g, v1), boundary(g, v2)
        assert boundary(g, v1p) <= (b1 | b2)
        assert boundary(g, v2p) <= (b1 | b2)
        s1, s2 = cut_size(g, v1), cut_size(g, v2)
        s1p, s2p = cut_size(g, v1p), cut_size(g, v2p)
        assert s1p < s1 or s2p < s2 or (s1p == s1 and s2p == s2)
        hits += 1


def test_property_replacement():
    """Splitting a simple cut's boundary along an induced sub-cut and
    substituting any terminal-equivalent cut-set leaves a witness cut with
    the original terminal partition inside the allowed edge set."""
    rng = random.Random(555)
    hits = 0
    while hits < N_PROPERTY:
        g = _rand_graph(rng, 5, 9)
        verts = frozenset(g.vertex_list())
        vp = _bipartition(rng, g)
        if not is_connected_subset(g, vp):
            continue
        terms = frozenset(rng.sample(sorted(verts), rng.randint(2, 4)))
        # E' = edges of boundary(vp) leaving one chosen outside component
        outside = [frozenset(c) for c in
                   components(induced_subgraph(g, verts - vp))]
        drop = frozenset().union(*rng.sample(outside,
                                             rng.randint(1, len(outside))))
        if drop == verts - vp:
            continue
        v_dag = verts - drop                 # vp subset of v_dag
        if not (terms & v_dag) or not (terms - v_dag):
            continue                         # must separate terms
        e_prime = boundary(g, v_dag)
        # E'': boundary of any other cut with the same terminal partition
        v_ddag = None
        for _ in range(20):
            cand = _bipartition(rng, g)
            if cand & terms == v_dag & terms and cand != v_dag:
                v_ddag = cand
                break
        if v_ddag is None:
            continue
        e_second = boundary(g, v_ddag)
        # witness from the constructive argument
        l_side = vp | drop
        q = l_side & v_ddag
        assert q & terms == vp & terms
        assert (verts - q) & terms == terms - (vp & terms)
        assert boundary(g, q) <= (boundary(g, vp) - e_prime) | e_second
        assert q <= l_side
        hits += 1


def test_property_subgraph_replace():
    """Swapping the part of a cut-set inside a connected region for any
    edge set that splits the region's pinned vertices the same way yields a
    cut with the same terminal partition."""
    rng = random.Random(666)
    hits = 0
    while hits < N_PROPERTY:
        g = _rand_graph(rng, 5, 9)
        verts = frozenset(g.vertex_list())
        vp = _bipartition(rng, g)
        star = _bipartition(rng, g)
        sub = induced_subgraph(g, star)
        if len(components(sub)) != 1:
            continue
        e_prime = {e for e in boundary(g, vp)
                   if e[0] in star and e[1] in star}
        if not e_prime:
            continue
        terms = frozenset(rng.sample(sorted(verts), rng.randint(1, 3)))
        pinned = (terms | {v for e in boundary(g, star) for v in e}) & star
        # W must agree with vp on the pinned vertices of the region
        w_side = None
        for _ in range(20):
            cand = frozenset(rng.sample(sorted(star),
                                        rng.randrange(0, len(star) + 1)))
            if cand & pinned == vp & pinned:
                w_side = cand
                break
        if w_side is None:
            continue
        e_second = boundary(sub, w_side)
        new_side = (vp - star) | w_side
        assert boundary(g, new_side) == \
            (boundary(g, vp) - e_prime) | e_second
        assert new_side & terms == vp & terms
        hits += 1


# -- 11. degree reduction ----------------------------------------------------

def test_degree_reduction_preserves_capped_connectivity():
    """min(c, lambda) is identical between a simple graph and its constant
    degree image for all vertex pairs, 200 graphs, c <= 4."""
    rng = random.Random(1111)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_simple_graph(rng, n, rng.uniform(0.2, 0.9))
        c = rng.randint(1, 4)
        image = degree_reduce(g, c)
        image.check_invariants()
        for u, w in itertools.combinations(g.vertex_list(), 2):
            assert edge_connectivity(g, u, w, c) == \
                edge_connectivity(image.multigraph, image.anchor(u),
                                  image.anchor(w), c)


# -- 12. closed-form parameter tables ----------------------------------------

GRID = [(c, g) for c in (1, 2, 3, 4) for g in (16, 64, 256)] + [(1, 2 ** 80)]


def _recompute_tables(c0, rounds, chain):
    """The (t, q) multiplier tables straight from the closed forms: row 0
    has t_{0,j+1} = t_{0,j} * F^2 and q_{0,j} = t_{0,j} * F with
    F = (c0+2)^(rounds+3); deeper rows reindex through the w-recurrence
    w_{i,j} = w_{i,j-1} + 2(c_i - j) + 3 and multiply q by (c0+2)."""
    f1 = (c0 + 2) ** (rounds + 3)
    rows = [[(f1 ** (2 * j), f1 ** (2 * j + 1)) for j in range(c0)]]
    for i in range(1, rounds + 2):
        c_i = chain[i]
        prev = rows[-1]
        row, w = [], 0
        for j in range(1, c_i + 1):
            w_next = w + 2 * (c_i - j) + 3
            row.append((prev[w][0], prev[w_next - 1][1] * (c0 + 2)))
            w = w_next
        rows.append(row)
    return rows


@pytest.mark.parametrize("c,g", GRID)
def test_schedule_arithmetic_recomputation(c, g):
    """The symbolic profile's round budget, strength chain, gamma, and
    multiplier tables match an independent exact-arithmetic recomputation
    for a grid of (c, m) scales."""
    s = make_schedule(c, None, "paper", {"log2_m": g})
    getcontext().prec = 60
    lg = Decimal(g.bit_length() - 1)
    ratio = (lg / 10) / (Decimal(4 * c).ln() / Decimal(2).ln())
    zeta = int((ratio.ln() / Decimal(2).ln()).to_integral_value(
        rounding="ROUND_FLOOR")) - 1
    assert s.zeta == zeta
    rounds = max(zeta, 0)
    chain = [c]
    while len(chain) < rounds + 2:
        chain.append(chain[-1] * (chain[-1] + 2))
    chain = tuple(reversed(chain))
    assert s.chain == chain == strength_chain(c, rounds)
    c0 = chain[0]
    assert s.gamma == c0 + 1
    if c0 > 5000:
        assert s.table_kind == "omitted"
        return
    assert s.table_kind == "multiplier"
    want = _recompute_tables(c0, rounds, chain)
    assert [list(r) for r in s.tables] == want


@pytest.mark.parametrize("c,g", GRID)
def test_schedule_table_interleaving(c, g):
    """Within every table row, t_j(c0+2) <= q_j and q_j(c0+2) <= t_{j+1}:
    the side-size/replacement-budget interleaving the recursion needs."""
    s = make_schedule(c, None, "paper", {"log2_m": g})
    if s.tables is None:
        pytest.skip("tables not materialized at this scale")
    c0 = s.chain[0]
    for row in s.tables:
        for j, (t_j, q_j) in enumerate(row):
            assert t_j * (c0 + 2) <= q_j
            if j + 1 < len(row):
                assert q_j * (c0 + 2) <= row[j + 1][0]


def test_desk_tables_interleave_too():
    for c in (1, 2, 3):
        s = make_schedule(c, 512, "desk")
        c0 = s.chain[0]
        for row in s.tables:
            for j, (t_j, q_j) in enumerate(row):
                assert t_j * (c0 + 2) <= q_j
                if j + 1 < len(row):
                    assert q_j * (c0 + 2) <= row[j + 1][0]
