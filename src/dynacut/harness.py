"""Trace replay harness: parse and generate update/query traces, run them
through the connectivity engine with optional max-flow differential
checking, and emit a versioned metrics report."""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import expander, repair
from .connectivity import engine_preprocess, engine_query, engine_update, \
    offline_oracle
from .errors import RejectedOp, RejectedSchedule
from .multigraph import DeleteEdge, InsertEdge, MultiGraph
from .multilevel import dump_schedule, make_schedule

log = logging.getLogger("dynacut")

METRICS_SCHEMA_VERSION = 2


# -- trace format ------------------------------------------------------------

@dataclass(frozen=True)
class TraceLine:
    kind: str                    # "insert" | "delete" | "query" | "comment"
    u: int = 0
    v: int = 0
    text: str = ""               # comment body


class TraceError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_trace(text: str) -> List[TraceLine]:
    out: List[TraceLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            out.append(TraceLine("comment", text=line[1:].strip()))
            continue
        parts = line.split()
        if parts[0] not in ("insert", "delete", "query"):
            raise TraceError(lineno, f"unknown op {parts[0]!r}")
        if len(parts) != 3:
            raise TraceError(lineno, f"{parts[0]} needs exactly two ids")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise TraceError(lineno, f"non-integer id in {line!r}") from None
        if u < 0 or v < 0:
            raise TraceError(lineno, "vertex ids must be non-negative")
        out.append(TraceLine(parts[0], u, v))
    return out


def render_trace(lines: Sequence[TraceLine]) -> str:
    out = []
    for tl in lines:
        if tl.kind == "comment":
            out.append(f"# {tl.text}".rstrip())
        else:
            out.append(f"{tl.kind} {tl.u} {tl.v}")
    return "\n".join(out) + ("\n" if out else "")


def gen_workload(n: int, ops: int, seed: int,
                 query_rate: float = 0.25) -> List[TraceLine]:
    """A deterministic pseudo-random trace on vertex ids 0..n-1, valid at
    every prefix: no duplicate inserts, no deletes of absent edges, queries
    only between vertices the graph has seen."""
    if n < 2:
        raise RejectedOp("gen-workload", f"need n >= 2, got {n}")
    rng = random.Random(seed)
    present: set = set()            # edge keys currently in the graph
    seen: List[int] = []            # vertices mentioned by some insert
    out: List[TraceLine] = []
    all_pairs = n * (n - 1) // 2
    for _ in range(ops):
        if len(seen) >= 2 and rng.random() < query_rate:
            u, v = rng.sample(seen, 2)
            out.append(TraceLine("query", u, v))
            continue
        can_insert = len(present) < all_pairs
        can_delete = bool(present)
        if can_insert and (not can_delete or rng.random() < 0.6):
            while True:
                u, v = rng.sample(range(n), 2)
                key = (min(u, v), max(u, v))
                if key not in present:
                    break
            present.add(key)
            for x in (u, v):
                if x not in seen:
                    seen.append(x)
            out.append(TraceLine("insert", u, v))
        else:
            key = rng.choice(sorted(present))
            present.remove(key)
            out.append(TraceLine("delete", key[0], key[1]))
    return out


# -- replay ------------------------------------------------------------------

@dataclass
class Mismatch:
    index: int                   # position of the failing query in the trace
    line: TraceLine
    engine_answer: bool
    oracle_answer: bool


def _replay(lines: Sequence[TraceLine], c: int, oracle_check: bool,
            stop_at: Optional[int] = None
            ) -> Tuple[Optional[Mismatch], Optional[object], MultiGraph]:
    """Run the trace, returning the first mismatch (if checking), the engine,
    and the shadow simple graph.  Raises TraceError for replay-invalid ops."""
    ids = {tl.u for tl in lines if tl.kind != "comment"} | \
          {tl.v for tl in lines if tl.kind != "comment"}
    e = engine_preprocess(MultiGraph(), c, n_cap=max(len(ids), 2))
    shadow = MultiGraph()
    for i, tl in enumerate(lines):
        if stop_at is not None and i > stop_at:
            break
        if tl.kind == "comment":
            continue
        if tl.kind == "insert":
            if shadow.has_edge(tl.u, tl.v) or tl.u == tl.v:
                raise TraceError(i + 1, f"bad insert {tl.u} {tl.v}")
            for x in (tl.u, tl.v):
                if not shadow.has_vertex(x):
                    shadow.add_vertex(x)
            shadow.add_edge(tl.u, tl.v, 1)
            engine_update(e, InsertEdge(tl.u, tl.v, 1))
        elif tl.kind == "delete":
            if not shadow.has_edge(tl.u, tl.v):
                raise TraceError(i + 1, f"delete of absent edge "
                                        f"{tl.u} {tl.v}")
            shadow.remove_edge(tl.u, tl.v)
            engine_update(e, DeleteEdge(tl.u, tl.v))
        else:
            if not (shadow.has_vertex(tl.u) and shadow.has_vertex(tl.v)):
                raise TraceError(i + 1, f"query on absent vertex "
                                        f"{tl.u} or {tl.v}")
            got = engine_query(e, tl.u, tl.v)
            if oracle_check:
                want = offline_oracle(shadow, tl.u, tl.v, c)
                if got != want:
                    return Mismatch(i, tl, got, want), e, shadow
    return None, e, shadow


def _minimize(lines: List[TraceLine], c: int, bad_index: int
              ) -> List[TraceLine]:
    """Greedily drop trace lines before the failing query while the mismatch
    at the final query survives.  Each candidate is re-replayed from
    scratch, so this is only meant for short reproduction traces."""
    kept = [tl for tl in lines[:bad_index + 1] if tl.kind != "comment"]

    def still_bad(cand: List[TraceLine]) -> bool:
        try:
            mism, _, _ = _replay(cand, c, oracle_check=True)
        except (TraceError, RejectedOp, RejectedSchedule):
            return False
        return mism is not None and mism.index == len(cand) - 1

    i = 0
    while i < len(kept) - 1:
        cand = kept[:i] + kept[i + 1:]
        if still_bad(cand):
            kept = cand
        else:
            i += 1
    return kept


def _triple(observed, bound) -> Dict:
    return {"observed": observed, "bound": bound,
            "ok": bool(observed <= bound)}


def _num(x):
    if isinstance(x, Fraction):
        return str(x)
    return x


def _build_metrics(lines, c, profile, e, mismatch, repair_log) -> Dict:
    sched = e.schedule
    scheduler = e.scheduler
    counts = {k: sum(1 for tl in lines if tl.kind == k)
              for k in ("insert", "delete", "query")}
    work = scheduler.work_stats()
    n_updates = counts["insert"] + counts["delete"]
    xi, w = scheduler.xi, scheduler.w
    t_pre = work["preprocess_steps"]
    t_amort = work["total_steps"] / n_updates if n_updates else 0.0
    smoothing_bound = 8 * 4 ** xi * (t_pre / w + w ** (1 / xi) * t_amort)
    batches = scheduler.batch_count_audit()
    c_bound = 24 * c ** 3 + 24 * c ** 2 + 4 * c
    repairs = [_triple(wsz, s * c_bound) for s, wsz, _ in repair_log]
    mds = e.current
    doc = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "c": c,
        "profile": profile,
        "ops": counts,
        "expander": {
            "exact_limit": expander.EXACT_LIMIT,
            "conductance_limit": expander.CONDUCTANCE_LIMIT,
        },
        "schedule": {
            "safe_mode": sched.safe_mode,
            "rounds": sched.rounds,
            "rounds_absorbed": mds.round,
            "mid_schedule": mds.round > 0,
            "t": _num(sched.t),
            "gamma": sched.gamma,
            "chain": list(sched.chain),
            "phi": _num(sched.phi),
            "notes": list(sched.notes),
        },
        "levels": {
            "count": mds.level_count(),
            "edge_counts": mds.level_edge_counts(),
            "etas_observed": [_num(x) for x in mds.etas_observed()],
        },
        "scheduler": {
            "xi": xi,
            "w": w,
            "copies": scheduler.copy_count(),
            "serves": batches["serves"],
            "max_batches": _triple(batches["max_batches"], xi),
            "max_batch_size": _triple(batches["max_batch_size"], w),
            "steps_per_update": list(scheduler.steps_per_update),
            "work_smoothing": _triple(work["max_steps_per_update"],
                                      smoothing_bound),
            "preprocess_steps": t_pre,
            "total_steps": work["total_steps"],
        },
        "repair_sets": {
            "count": len(repairs),
            "all_ok": all(r["ok"] for r in repairs),
            "size_bound_per_terminal": c_bound,
            "triples": repairs,
        },
        "queries": {
            "count": counts["query"],
            "checked": len(e.query_stats),
            "max_h_vertices": max((q["h_vertices"] for q in e.query_stats),
                                  default=0),
            "max_h_edges": max((q["h_edges"] for q in e.query_stats),
                               default=0),
            "max_expansion": max((max(q["expansion"])
                                  for q in e.query_stats), default=0),
        },
        "mismatch": None,
    }
    if profile == "paper-validate":
        paper = make_schedule(c, None, "paper", {"log2_m": 2 ** 6})
        doc["paper_schedule"] = json.loads(dump_schedule(paper))
    if mismatch is not None:
        doc["mismatch"] = {
            "index": mismatch.index,
            "line": f"{mismatch.line.kind} {mismatch.line.u} "
                    f"{mismatch.line.v}",
            "engine": mismatch.engine_answer,
            "oracle": mismatch.oracle_answer,
        }
    return doc


def run_trace(path: Optional[str], c: int, profile: str = "desk",
              oracle_check: bool = False,
              metrics_path: Optional[str] = None,
              lines: Optional[List[TraceLine]] = None) -> int:
    """Replay a trace through the engine.  Returns 0 on success, 1 on an
    oracle mismatch (after printing a minimized reproduction), 2 on a parse
    or replay error or when the engine refuses an op.  `lines` may be
    passed instead of a file path."""
    if lines is None:
        assert path is not None
        try:
            with open(path) as fh:
                lines = parse_trace(fh.read())
        except TraceError as exc:
            log.error("trace parse failed: %s", exc)
            print(f"parse error: {exc}")
            return 2
    try:
        with repair.recording() as repair_log:
            mismatch, e, _ = _replay(lines, c, oracle_check)
    except TraceError as exc:
        log.error("trace replay failed: %s", exc)
        print(f"replay error: {exc}")
        return 2
    except RejectedOp as exc:
        log.error("engine refused the trace: %s", exc)
        print(f"engine refused: {exc}")
        return 2
    metrics = _build_metrics(lines, c, profile, e, mismatch, repair_log)
    if metrics_path:
        with open(metrics_path, "w") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
    if mismatch is not None:
        minimized = _minimize(list(lines), c, mismatch.index)
        print(f"MISMATCH at trace op {mismatch.index + 1}: "
              f"{mismatch.line.kind} {mismatch.line.u} {mismatch.line.v} -> "
              f"engine={mismatch.engine_answer} "
              f"oracle={mismatch.oracle_answer}")
        print("minimized reproduction trace:")
        print(render_trace(minimized), end="")
        return 1
    log.info("trace ok: %s ops, %s queries checked",
             sum(v for v in metrics["ops"].values()),
             metrics["queries"]["checked"])
    return 0
