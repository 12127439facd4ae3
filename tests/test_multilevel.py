"""Tests for parameter schedules and the multi-level sparsifier stack."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from dynacut.connectivity import edge_connectivity
from dynacut.cutpartition import build_sparsifier
from dynacut.errors import RejectedOp, RejectedSchedule
from dynacut.multigraph import (
    DeleteEdge, InsertEdge, MultiGraph, apply_seq,
)
from dynacut.multilevel import (
    CeilValue, MultiLevelDS, ParamSchedule, SymValue, dump_schedule,
    load_schedule, make_schedule, preprocess_multi_level, strength_chain,
    update_multi_level,
)

from util import barbell, random_connected_graph


def desk(c, m, **over):
    return make_schedule(c, m, "desk", over)


def flat_phi(m):
    """A conductance target below any component's conductance, so every
    component is certified whole and the level stack stays flat."""
    return Fraction(1, 4 * max(m, 2) ** 2)


# -- schedules -------------------------------------------------------------

class TestDeskSchedule:
    def test_chain_and_gamma(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20)
        assert s.chain == (15, 3, 1)
        assert s.gamma == 16
        assert s.rounds == 1 and s.zeta == 1
        assert s.safe_mode

    def test_not_safe_when_t_small(self):
        s = desk(2, 50, rounds=0, t=10, n_max=30)
        assert not s.safe_mode
        assert s.chain == (8, 2)

    def test_tables_shape_and_layer_params(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20)
        assert [len(r) for r in s.tables] == [15, 3]
        for k in range(s.rounds + 1):
            lp = s.layer_params(k)
            assert lp.strict and lp.c == s.chain[k + 1]
            assert lp.pairs == s.tables[k]

    def test_condition5_holds(self):
        s = desk(2, 30, rounds=1, t=30, n_max=30)
        c0 = s.chain[0]
        for row in s.tables:
            for j, (t_j, q_j) in enumerate(row):
                assert t_j * (c0 + 2) <= q_j
                if j + 1 < len(row):
                    assert q_j * (c0 + 2) <= row[j + 1][0]

    def test_chain_violation_named(self):
        # q_1 (c_0+2)^2 > t_2 breaks the strict chain
        bad = tuple((10, 30) for _ in range(3))
        with pytest.raises((RejectedSchedule, RejectedOp)) as exc:
            desk(1, 12, rounds=0, t=10, pairs=bad)
        assert "chain" in str(exc.value) or "q_" in str(exc.value)

    def test_rejections(self):
        with pytest.raises(RejectedSchedule):
            desk(1, 12, rounds=-1)
        with pytest.raises(RejectedSchedule):
            desk(1, 12, phi=Fraction(3, 2))
        with pytest.raises(RejectedSchedule):
            desk(1, 12, gamma=2)
        with pytest.raises(RejectedSchedule):
            make_schedule(0, 12)

    def test_dump_load_roundtrip(self):
        s = desk(2, 40, rounds=1, t=40, n_max=40, phi=Fraction(2, 5))
        assert load_schedule(dump_schedule(s)) == s


class TestPaperSchedule:
    def test_zeta_matches_independent_recompute(self):
        # floor(log2((loglog m / 10)/log2(4c))) - 1 via 50-digit decimals
        getcontext().prec = 50
        for c, g in [(1, 16), (2, 16), (3, 16), (1, 2 ** 7), (1, 2 ** 80),
                     (2, 2 ** 160), (3, 2 ** 160), (1, 2 ** 160)]:
            s = make_schedule(c, None, "paper", {"log2_m": g})
            lg = Decimal(g.bit_length() - 1)
            ratio = (lg / 10) / (Decimal(4 * c).ln() / Decimal(2).ln())
            want = int((ratio.ln() / Decimal(2).ln()).to_integral_value(
                rounding="ROUND_FLOOR")) - 1
            assert s.zeta == want, (c, g)

    def test_small_m_example(self):
        s = make_schedule(2, 2 ** 16, "paper")
        assert s.zeta == -4          # loglog m = 4: (4/10)/3 = 2/15
        assert s.rounds == 0
        assert s.chain == (8, 2) and s.gamma == 9

    def test_big_m_chain_and_tables(self):
        s = make_schedule(1, None, "paper", {"log2_m": 2 ** 80})
        assert s.zeta == 1
        assert s.chain == strength_chain(1, 1) == (15, 3, 1)
        assert s.table_kind == "multiplier"
        assert [len(r) for r in s.tables] == [15, 3, 1]
        # row 0 follows the closed forms: t-mult gap F^2, q = t * F
        f1 = 17 ** 4
        for j, (t_j, q_j) in enumerate(s.tables[0]):
            assert t_j == f1 ** (2 * j)
            assert q_j == t_j * f1
        # deeper rows: q picks up one factor (c_0+2) per round
        for i in range(1, 3):
            c_i = s.chain[i]
            prev, w = s.tables[i - 1], 0
            for j in range(1, c_i + 1):
                w_next = w + 2 * (c_i - j) + 3
                assert s.tables[i][j - 1] == (prev[w][0],
                                              prev[w_next - 1][1] * 17)
                w = w_next

    def test_symbolic_values(self):
        s = make_schedule(1, None, "paper", {"log2_m": 2 ** 80})
        assert s.phi == SymValue(e34=Fraction(-1))
        assert s.phis[1] == SymValue(e34=Fraction(-1), el=Fraction(-1))
        c0 = s.chain[0]
        assert s.etas[0] == SymValue(k=4, b=10 * c0, e=3 * c0,
                                     e34=Fraction(-1), el=Fraction(1))
        assert s.t == CeilValue(SymValue(k=c0, e34=Fraction(1),
                                         el=Fraction(2)))

    def test_requires_power_tower(self):
        with pytest.raises(RejectedSchedule):
            make_schedule(1, 1000, "paper")
        with pytest.raises(RejectedSchedule):
            make_schedule(1, None, "paper", {"log2_m": 24})

    def test_not_runnable(self):
        s = make_schedule(2, 2 ** 16, "paper")
        with pytest.raises(RejectedOp):
            s.layer_params(0)
        with pytest.raises(RejectedOp):
            s.phi_at(0)

    def test_dump_load_roundtrip(self):
        for args in [(2, 2 ** 16, "paper", {}),
                     (1, None, "paper", {"log2_m": 2 ** 80})]:
            s = make_schedule(*args)
            assert load_schedule(dump_schedule(s)) == s


# -- preprocessing ---------------------------------------------------------

def check_mds(mds: MultiLevelDS, g: MultiGraph) -> None:
    sched = mds.schedule
    assert mds.graph == g
    for i in range(1, mds.level_count()):
        assert mds.levels[i].g == build_sparsifier(mds.levels[i - 1])
    top = build_sparsifier(mds.levels[-1])
    assert top.distinct_edge_count() == 0
    # structure strength entering the next round
    c_cur = sched.chain[mds.round + 1]
    for ods in mds.levels:
        assert ods.params.strict and ods.params.c == c_cur


class TestPreprocess:
    def test_edgeless(self):
        g = MultiGraph.from_edges(range(5), [])
        s = desk(1, 8, t=8, n_max=8)
        mds = preprocess_multi_level(g, s)
        assert mds.level_count() == 1
        assert mds.level_edge_counts() == [0]
        check_mds(mds, g)

    def test_barbell_levels(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=Fraction(2, 5))
        mds = preprocess_multi_level(barbell(), s)
        assert mds.level_count() == 2
        bridge = mds.levels[1].g
        assert sorted(bridge.edge_items()) == [((2, 3), 1)]
        check_mds(mds, barbell())

    def test_flat_phi_single_level(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 12),
                                       rng.randint(0, 6))
            s = desk(rng.randint(1, 3), 40, t=40, n_max=40, phi=flat_phi(40))
            mds = preprocess_multi_level(g, s)
            assert mds.level_count() == 1
            check_mds(mds, g)

    def test_level_invariant_fuzz(self):
        rng = random.Random(11)
        done = 0
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(4, 16),
                                       rng.randint(0, 8))
            s = desk(1, 40, t=40, n_max=40, phi=Fraction(1, 3))
            try:
                mds = preprocess_multi_level(g, s)
            except RejectedOp:
                continue          # non-shrink diagnostic at this phi
            check_mds(mds, g)
            done += 1
        assert done >= 5

    def test_sparsifier_equivalence_across_levels(self):
        rng = random.Random(23)
        done = 0
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 12),
                                       rng.randint(0, 6))
            s = desk(1, 40, t=40, n_max=40, phi=Fraction(1, 3))
            try:
                mds = preprocess_multi_level(g, s)
            except RejectedOp:
                continue
            c_str = s.chain[1]
            for i in range(1, mds.level_count()):
                lo, hi = mds.levels[i - 1].g, mds.levels[i].g
                ends = mds.levels[i - 1].layers[0].terminals
                for x in sorted(ends):
                    for y in sorted(ends):
                        if x < y:
                            assert (edge_connectivity(lo, x, y, c_str)
                                    == edge_connectivity(hi, x, y, c_str))
                            done += 1
        assert done >= 5

    def test_non_shrink_guard(self):
        # safe-mode t shatters this graph's clusters, so the sparsifier is a
        # fixed point and the diagnostic fires
        g = MultiGraph.from_edges(range(6), [(0, 1), (0, 2), (1, 2), (1, 5),
                                             (2, 4), (3, 4), (3, 5), (4, 5)])
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=Fraction(2, 5))
        with pytest.raises(RejectedOp) as exc:
            preprocess_multi_level(g, s)
        assert "shrink" in str(exc.value)


# -- updates ---------------------------------------------------------------

class TestUpdate:
    def test_empty_batch_graphs_unchanged(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=Fraction(2, 5))
        mds = preprocess_multi_level(barbell(), s)
        m2 = update_multi_level(mds, [])
        assert m2.round == 1
        assert m2.graph == barbell()
        check_mds(m2, barbell())

    def test_bridge_deletion_fast_path(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=Fraction(2, 5))
        mds = preprocess_multi_level(barbell(), s)
        m2 = update_multi_level(mds, [DeleteEdge(2, 3)])
        want = apply_seq(barbell(), [DeleteEdge(2, 3)])
        check_mds(m2, want)
        # the structures now carry the round-1 table
        for ods in m2.levels:
            assert ods.params.pairs == s.tables[1]

    def test_rebuild_branch(self):
        s = desk(1, 4, rounds=1, t=20, n_max=20, phi=flat_phi(4))
        mds = preprocess_multi_level(barbell(), s)
        seq = [DeleteEdge(2, 3), InsertEdge(2, 4, 1), InsertEdge(1, 5, 1)]
        m2 = update_multi_level(mds, seq)     # threshold < |seq|: rebuild
        check_mds(m2, apply_seq(barbell(), seq))

    def test_round_budget(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=flat_phi(12))
        mds = preprocess_multi_level(barbell(), s)
        m2 = update_multi_level(mds, [])
        with pytest.raises(RejectedOp) as exc:
            update_multi_level(m2, [])
        assert "budget" in str(exc.value)

    def test_clone_is_isolated(self):
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=flat_phi(12))
        mds = preprocess_multi_level(barbell(), s)
        frozen = mds.clone()
        fp = frozen.fingerprint()
        update_multi_level(mds, [DeleteEdge(2, 3)])
        assert frozen.fingerprint() == fp
        assert frozen.graph == barbell()

    def test_update_leaves_its_input_unchanged(self):
        """A preprocessed level shares its equal layers, so the update
        works on clones of the levels and the input stays as it was."""
        s = desk(1, 12, rounds=1, t=20, n_max=20, phi=Fraction(2, 5))
        mds = preprocess_multi_level(barbell(), s)
        layers = mds.levels[0].layers
        assert len({id(ds) for ds in layers}) < len(layers)
        fp = mds.fingerprint()
        m2 = update_multi_level(mds, [DeleteEdge(2, 3)])
        assert mds.fingerprint() == fp
        check_mds(m2, apply_seq(barbell(), [DeleteEdge(2, 3)]))

    def test_update_fuzz_both_branches(self):
        rng = random.Random(31)
        fast = rebuild = 0
        for trial in range(14):
            n = rng.randint(4, 10)
            g = random_connected_graph(rng, n, rng.randint(0, 4))
            # small m makes deeper thresholds bite; vary to hit both branches
            m_budget = rng.choice([3, 40])
            s = desk(1, m_budget, rounds=1, t=60, n_max=60,
                     phi=Fraction(1, 3))
            try:
                mds = preprocess_multi_level(g, s)
            except RejectedOp:
                continue
            edges = sorted(e for e, _ in g.edge_items())
            k = min(len(edges), rng.randint(1, 2))
            seq = [DeleteEdge(*e) for e in rng.sample(edges, k)]
            threshold = Fraction(s.m) * Fraction(1, 3)
            try:
                m2 = update_multi_level(mds, seq)
            except RejectedOp:
                continue
            if len(seq) > threshold:
                rebuild += 1
            else:
                fast += 1
            check_mds(m2, apply_seq(g.copy(), seq))
        assert fast >= 2 and rebuild >= 2
