"""Multi-level sparsifier stack over the layered cut-partition structure.

Level 0 holds the input multigraph; each further level holds the sparsifier
of the level below, until the top sparsifier has no edges.  A parameter
schedule fixes the per-round strength chain c_0 > c_1 > ... (each update
round degrades a strict structure by one step, so c_{k-1} = c_k(c_k+2)),
the contraction multiplicity gamma = c_0 + 1, and the per-layer (t, q)
tables consumed by the layer machinery.

Two profiles exist.  The desk profile is runnable: small strength chain,
rational conductance target, integer tables, and a "safe mode" flag set
when t dominates every component size (making correctness independent of
expander quality).  The closed-form profile evaluates the published
formula family exactly for m = 2**(2**a): integer outputs (round budget,
strength chain, gamma, table multipliers) are computed with big-integer
arithmetic, while irrational quantities (conductance and shrink factors,
the base threshold t) are kept symbolic as SymValue/CeilValue records, so
every finitely checkable inequality is decided exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from .cutpartition import (
    CutPartitionDS, LayerParams, build_sparsifier, cut_partition_preprocess,
    cut_partition_update, splice_partition, transformed_params,
)
from .errors import RejectedOp, RejectedSchedule
from .multigraph import MultiGraph, UpdateSeq, VertexId, apply_seq


# -- symbolic values for the closed-form profile ---------------------------

@dataclass(frozen=True)
class SymValue:
    """k * b**e * 2**(rat + e34*g^{3/4} + el*(g*(log2 g)^2)^{1/3}).

    g = log2(m).  The two radical terms cover every exponent the closed
    forms produce; coefficients are exact Fractions, so equality of two
    SymValues is plain structural equality.
    """
    k: int = 1
    b: int = 1
    e: int = 0
    rat: Fraction = Fraction(0)
    e34: Fraction = Fraction(0)
    el: Fraction = Fraction(0)


@dataclass(frozen=True)
class CeilValue:
    """ceil(inner), with inner irrational (so the ceiling stays symbolic)."""
    inner: SymValue


TValue = Union[int, CeilValue]


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _floor_log2_ratio(a: int, c: int) -> int:
    """floor(log2((a/10) / log2(4c))), exactly, via integer comparisons."""
    base = 4 * c

    def at_least(k: int) -> bool:
        # (a/10)/log2(base) >= 2^k  <=>  2^{a 2^{-k}} >= base^10 (k < 0)
        #                           <=>  2^a >= base^{10 2^k}     (k >= 0)
        if k >= 0:
            return a >= _ceil_log2(base ** (10 * (2 ** k)))
        return a * (2 ** (-k)) >= _ceil_log2(base ** 10)

    for k in range(max(a.bit_length(), 1) + 1, -200, -1):
        if at_least(k):
            return k
    raise RejectedSchedule("floor(log2) out of supported range")


def strength_chain(c: int, rounds: int) -> Tuple[int, ...]:
    """(c_0, ..., c_{rounds+1}) with c_{rounds+1} = c, c_i = c_{i+1}(c_{i+1}+2)."""
    chain = [c]
    for _ in range(rounds + 1):
        chain.append(chain[-1] * (chain[-1] + 2))
    return tuple(reversed(chain))


# -- the schedule ----------------------------------------------------------

@dataclass(frozen=True)
class ParamSchedule:
    profile: str                       # "desk" | "paper"
    c: int                             # query-level target = chain[-1]
    m: int                             # size budget (update thresholds)
    zeta: int                          # raw round-budget formula value
    rounds: int                        # usable update rounds (= max(zeta, 0))
    chain: Tuple[int, ...]             # c_0 .. c_{rounds+1}
    gamma: int
    t: TValue
    # tables[k] = the (t, q) chain the structure satisfies after k rounds;
    # desk: absolute integers, closed-form: multipliers of the symbolic t
    tables: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]]
    table_kind: str                    # "absolute" | "multiplier" | "omitted"
    phi: Union[Fraction, SymValue]
    phis: Tuple[Union[Fraction, SymValue], ...]   # per round 0..rounds+1
    etas: Optional[Tuple[SymValue, ...]]
    safe_mode: bool
    log2_m: Optional[int] = None
    notes: Tuple[str, ...] = ()

    def layer_params(self, k: int) -> LayerParams:
        """The strict chain entering round k+1 (k rounds already absorbed)."""
        if not isinstance(self.t, int) or self.table_kind != "absolute":
            raise RejectedOp("schedule", "profile has no runnable tables")
        return LayerParams(self.t, self.chain[k + 1], self.tables[k],
                           strict=True)

    def phi_at(self, k: int) -> Fraction:
        phi = self.phis[min(k, len(self.phis) - 1)]
        if not isinstance(phi, Fraction):
            raise RejectedOp("schedule", "profile has no rational phi")
        return phi


def _check_condition5(tables, c0: int, what: str) -> None:
    """t_{i,j}(c_0+2) <= q_{i,j} and q_{i,j}(c_0+2) <= t_{i,j+1} per row."""
    for i, row in enumerate(tables):
        for j, (t_ij, q_ij) in enumerate(row):
            if t_ij * (c0 + 2) > q_ij:
                raise RejectedSchedule(
                    f"{what}: t_{i},{j + 1}*(c_0+2) > q_{i},{j + 1}")
            if j + 1 < len(row) and q_ij * (c0 + 2) > row[j + 1][0]:
                raise RejectedSchedule(
                    f"{what}: q_{i},{j + 1}*(c_0+2) > t_{i},{j + 2}")


def _desk_schedule(c: int, m: int, overrides: Dict) -> ParamSchedule:
    rounds = int(overrides.get("rounds", 0))
    if rounds < 0:
        raise RejectedSchedule("rounds must be non-negative")
    phi = Fraction(overrides.get("phi", Fraction(1, 4)))
    if not 0 < phi <= 1:
        raise RejectedSchedule("phi must be in (0, 1]")
    chain = strength_chain(c, rounds)
    c0 = chain[0]
    gamma = int(overrides.get("gamma", c0 + 1))
    if gamma <= c0:
        raise RejectedSchedule(f"gamma = {gamma} <= c_0 = {c0}")
    n_max = int(overrides.get("n_max", m))
    t = int(overrides.get("t", max(n_max, 1)))
    if t < 1:
        raise RejectedSchedule("t must be positive")
    f1 = (c0 + 2) ** (rounds + 3)
    if "pairs" in overrides:
        row0 = tuple((int(a), int(b)) for a, b in overrides["pairs"])
    else:
        row0 = []
        t_j = t
        for _ in range(c0):
            row0.append((t_j, t_j * f1))
            t_j *= f1 * f1
        row0 = tuple(row0)
    tables = [row0]
    try:
        for k in range(rounds):
            prev = LayerParams(t, chain[k + 1], tables[k], strict=True)
            tables.append(transformed_params(prev).pairs)
        LayerParams(t, chain[rounds + 1], tables[rounds], strict=True)
    except RejectedOp as exc:
        raise RejectedSchedule(exc.reason)
    tables = tuple(tables)
    _check_condition5(tables, c0, "desk tables")
    return ParamSchedule(
        profile="desk", c=c, m=m, zeta=rounds, rounds=rounds, chain=chain,
        gamma=gamma, t=t, tables=tables, table_kind="absolute", phi=phi,
        phis=(phi,) * (rounds + 2), etas=None, safe_mode=t >= n_max,
        notes=("safe mode: every component of size <= t sees exhaustive "
               "cut enumeration, so answers do not depend on expander "
               "quality",) if t >= n_max else ())


_TABLE_CAP = 5000  # largest c_0 whose tables we materialize


def _paper_schedule(c: int, m: Optional[int], overrides: Dict
                    ) -> ParamSchedule:
    if "log2_m" in overrides:
        g = int(overrides["log2_m"])
    else:
        if m is None or m < 2 or m & (m - 1):
            raise RejectedSchedule("closed-form profile needs m = 2^g")
        g = m.bit_length() - 1
    a = g.bit_length() - 1
    if g != 1 << a:
        raise RejectedSchedule("closed-form profile needs log2(m) = 2^a")
    delta = int(overrides.get("delta", 1))
    zeta = _floor_log2_ratio(a, c) - 1
    zp = max(zeta, 0)
    notes = []
    if zeta < 0:
        notes.append("round-budget formula is negative at this scale; "
                     "chain and tables use max(zeta, 0)")
    chain = strength_chain(c, zp)
    c0 = chain[0]
    gamma = c0 + 1
    phi = SymValue(e34=Fraction(-1))
    phis = tuple(SymValue(e34=Fraction(-1), el=Fraction(-i * delta))
                 for i in range(zp + 2))
    etas = tuple(SymValue(k=4, b=10 * c0, e=3 * c0, e34=Fraction(-1),
                          el=Fraction((i + 1) * delta))
                 for i in range(zp + 2))
    t = CeilValue(SymValue(k=c0, e34=Fraction(1),
                           el=Fraction((zp + 1) * delta)))
    if c0 > _TABLE_CAP:
        notes.append(f"c_0 = {c0} exceeds the table materialization cap")
        tables, kind = None, "omitted"
    else:
        f1 = (c0 + 2) ** (zp + 3)
        row = []
        t_j = 1
        for _ in range(c0):
            row.append((t_j, t_j * f1))
            t_j *= f1 * f1
        tables = [tuple(row)]
        for i in range(1, zp + 2):
            c_i = chain[i]
            prev = tables[-1]
            row, w = [], 0
            for j in range(1, c_i + 1):
                w_next = w + 2 * (c_i - j) + 3
                row.append((prev[w][0], prev[w_next - 1][1] * (c0 + 2)))
                w = w_next
            tables.append(tuple(row))
        tables, kind = tuple(tables), "multiplier"
        _check_condition5(tables, c0, "closed-form tables")
    return ParamSchedule(
        profile="paper", c=c, m=m if m is not None else 0, zeta=zeta,
        rounds=zp, chain=chain, gamma=gamma, t=t, tables=tables,
        table_kind=kind, phi=phi, phis=phis, etas=etas, safe_mode=False,
        log2_m=g, notes=tuple(notes))


def make_schedule(c: int, m: Optional[int], profile: str = "desk",
                  overrides: Optional[Dict] = None) -> ParamSchedule:
    if c < 1:
        raise RejectedSchedule("c must be a positive integer")
    overrides = dict(overrides or {})
    if profile == "desk":
        if m is None or m < 1:
            raise RejectedSchedule("desk profile needs a positive size budget")
        return _desk_schedule(c, m, overrides)
    if profile == "paper":
        return _paper_schedule(c, m, overrides)
    raise RejectedSchedule(f"unknown profile {profile!r}")


# -- schedule dump / load --------------------------------------------------

def _num_out(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, SymValue):
        return {"k": x.k, "b": x.b, "e": x.e, "rat": _num_out(x.rat),
                "e34": _num_out(x.e34), "el": _num_out(x.el)}
    if isinstance(x, CeilValue):
        return {"ceil": _num_out(x.inner)}
    return x


def _num_in(x):
    """Test oracle: a number as dump_schedule writes it, read back."""
    if isinstance(x, str):
        p, q = x.split("/")
        return Fraction(int(p), int(q))
    if isinstance(x, dict):
        if "ceil" in x:
            return CeilValue(_num_in(x["ceil"]))
        return SymValue(k=x["k"], b=x["b"], e=x["e"], rat=_num_in(x["rat"]),
                        e34=_num_in(x["e34"]), el=_num_in(x["el"]))
    return x


def dump_schedule(s: ParamSchedule) -> str:
    doc = {
        "version": 1,
        "profile": s.profile, "c": s.c, "m": s.m, "zeta": s.zeta,
        "rounds": s.rounds, "chain": list(s.chain), "gamma": s.gamma,
        "t": _num_out(s.t),
        "tables": (None if s.tables is None
                   else [[[a, b] for a, b in row] for row in s.tables]),
        "table_kind": s.table_kind,
        "phi": _num_out(s.phi), "phis": [_num_out(p) for p in s.phis],
        "etas": (None if s.etas is None else [_num_out(e) for e in s.etas]),
        "safe_mode": s.safe_mode, "log2_m": s.log2_m,
        "notes": list(s.notes),
    }
    return json.dumps(doc, indent=2)


def load_schedule(text: str) -> ParamSchedule:
    """Test oracle: the inverse of `dump_schedule`."""
    doc = json.loads(text)
    return ParamSchedule(
        profile=doc["profile"], c=doc["c"], m=doc["m"], zeta=doc["zeta"],
        rounds=doc["rounds"], chain=tuple(doc["chain"]), gamma=doc["gamma"],
        t=_num_in(doc["t"]),
        tables=(None if doc["tables"] is None
                else tuple(tuple((a, b) for a, b in row)
                           for row in doc["tables"])),
        table_kind=doc["table_kind"],
        phi=_num_in(doc["phi"]),
        phis=tuple(_num_in(p) for p in doc["phis"]),
        etas=(None if doc["etas"] is None
              else tuple(_num_in(e) for e in doc["etas"])),
        safe_mode=doc["safe_mode"], log2_m=doc["log2_m"],
        notes=tuple(doc["notes"]))


# -- the multi-level structure ---------------------------------------------

@dataclass
class MultiLevelDS:
    levels: List[CutPartitionDS]
    schedule: ParamSchedule
    round: int = 0

    @property
    def graph(self) -> MultiGraph:
        return self.levels[0].g

    def level_count(self) -> int:           # ell + 1 levels, top index ell
        return len(self.levels)

    def level_edge_counts(self) -> List[int]:
        return [ods.g.distinct_edge_count() for ods in self.levels]

    def etas_observed(self) -> List[Fraction]:
        counts = self.level_edge_counts()
        return [Fraction(counts[i], counts[i - 1])
                for i in range(1, len(counts)) if counts[i - 1]]

    def clone(self) -> "MultiLevelDS":
        return MultiLevelDS([ods.clone() for ods in self.levels],
                            self.schedule, self.round)

    def fingerprint(self) -> Tuple:
        """Test oracle: the stack's state, compared by value."""
        return (self.round, tuple(ods.fingerprint() for ods in self.levels))


def _reframe(ods: CutPartitionDS, c_next: int) -> CutPartitionDS:
    """Re-type the plain chain a round leaves behind as the strict chain of
    the next, weaker strength (same layer count, tighter factor)."""
    p = ods.params
    params = LayerParams(p.t, c_next, p.pairs, strict=True)
    return replace(ods, params=params)


def _build_levels(g: MultiGraph, sched: ParamSchedule, k: int,
                  out: List[CutPartitionDS]) -> None:
    """Append freshly preprocessed levels for graph g (state after k rounds)
    until the top sparsifier has no edges."""
    params = sched.layer_params(k)
    cur = g
    stall = 0
    while True:
        ods = cut_partition_preprocess(cur, sched.phi, params, sched.gamma)
        out.append(ods)
        sp = build_sparsifier(ods)
        if sp.distinct_edge_count() == 0:
            return
        stall = _stall(stall, cur, sp)
        cur = sp


def _stall(stall: int, cur: MultiGraph, sp: MultiGraph) -> int:
    """The count of consecutive levels whose sparsifier sp did not shrink
    its input cur; raises at the third."""
    if sp.distinct_edge_count() < cur.distinct_edge_count():
        return 0
    if stall + 1 >= 3:
        raise RejectedOp(
            "multi-level preprocess",
            "sparsifier failed to shrink for 3 consecutive levels")
    return stall + 1


def preprocess_multi_level(g: MultiGraph, sched: ParamSchedule
                           ) -> MultiLevelDS:
    """The stack preprocessed from scratch on g.  Leaves g unchanged: each
    level holds its own copy of its input graph."""
    levels: List[CutPartitionDS] = []
    _build_levels(g, sched, 0, levels)
    return MultiLevelDS(levels, sched, 0)


def splice_multi_level(parent: MultiLevelDS, drop: Set[VertexId],
                       part: MultiLevelDS) -> MultiLevelDS:
    """parent, preprocessed on a graph G, with the components of G on the
    vertices `drop` replaced by part, preprocessed on other components with
    the same schedule and the same level count.

    Every edge of every level lies inside one component of G, and each
    level's graph is the sparsifier of the level below, built per
    component.  So splicing level by level gives preprocess_multi_level on
    the spliced graph, including the raise when the spliced levels fail to
    shrink.  Shares the kept components with parent and the equal layers
    of each level (see splice_partition), so the result is read-only."""
    if part.level_count() != parent.level_count():
        raise RejectedOp("multi-level splice", "level counts differ")
    levels = [splice_partition(old, drop, new)
              for old, new in zip(parent.levels, part.levels)]
    stall = 0
    for lo, hi in zip(levels, levels[1:]):
        stall = _stall(stall, lo.g, hi.g)
    return MultiLevelDS(levels, parent.schedule, parent.round)


def update_multi_level(mds: MultiLevelDS, seq: UpdateSeq) -> MultiLevelDS:
    """Absorb one update batch as round k = mds.round + 1, within the
    schedule's round budget.  Each level's update reads its strength,
    tables and gamma from the level itself.  Small batches propagate level by
    level; once a level's sequence exceeds its threshold, that level and
    everything above it are rebuilt from scratch.  Leaves its input
    unchanged: a preprocessed level shares its equal layers (see
    CutPartitionDS), so each level is updated on a clone().

    This is the paper's batch update, kept off the engine path: the engine's
    desk schedule has no spare rounds (rounds = 0), so StackDS preprocesses
    the components a batch touches and splices them in with
    splice_multi_level instead of calling this.  It is tested on a
    barbell under desk schedules with a spare round."""
    sched = mds.schedule
    k = mds.round + 1
    if k > sched.rounds:
        raise RejectedOp("multi-level update",
                         f"round budget exhausted: k = {k} > {sched.rounds}")
    c_next = sched.chain[k + 1]
    phi = sched.phi_at(k)
    new_levels: List[CutPartitionDS] = []
    cur_seq = list(seq)
    rebuild_from: Optional[int] = None
    for i, ods in enumerate(mds.levels):
        if len(cur_seq) > Fraction(sched.m) * phi ** (i + 1):
            rebuild_from = i
            break
        new_ods, cur_seq = cut_partition_update(ods.clone(), cur_seq, phi)
        new_levels.append(_reframe(new_ods, c_next))
    if rebuild_from is not None:
        g_cur = apply_seq(mds.levels[rebuild_from].g.copy(), cur_seq)
        _build_levels(g_cur, sched, k, new_levels)
    else:
        sp = build_sparsifier(new_levels[-1])
        if sp.distinct_edge_count() > 0:
            _build_levels(sp, sched, k, new_levels)
    return MultiLevelDS(new_levels, sched, k)
