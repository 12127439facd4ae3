"""Replay one workload through the engine's public API and check every op.

One process, one thread, one client in a closed loop: each op is sent when
the previous one has returned.  The engine sees only the generated ops.
Only the engine calls are timed; the checks run between them.

The cyclic garbage collector stays on.  A full collection runs before each
timed engine call, outside the timer, so that a collection set off inside a
call is paid for by that call's own allocations, not by the garbage of the
checks or of earlier calls.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from dynacut import connectivity as conn
from dynacut.multigraph import DeleteEdge, InsertEdge, MultiGraph

from layers import layer_metrics, traced
from model import Model
from workloads import OpStream, Workload

# A p90 needs this many samples of its op type, so that ten lie beyond it.
MIN_TAIL_SAMPLES = 100
# After the replay, once its peak RSS is read and its engine released, a
# plain run times engine_preprocess on the initial graph this many more
# times; setup_s is the median of these and the replay engine's set-up.
EXTRA_SETUPS = 40

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


def p90(samples: List[float]) -> Optional[float]:
    """The 90th percentile, or None below MIN_TAIL_SAMPLES samples."""
    if len(samples) < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def min_rounds(wl: Workload) -> int:
    """Rounds that give every op type enough samples for its p90."""
    return max(math.ceil(MIN_TAIL_SAMPLES / wl.updates_per_round),
               math.ceil(MIN_TAIL_SAMPLES / wl.queries_per_round))


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class Replay:
    wl: Workload
    engine: Optional[conn.Engine]
    model: Model
    update_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    check_s: List[float] = field(default_factory=list)
    answers: Dict[bool, int] = field(default_factory=lambda: {True: 0,
                                                               False: 0})
    attempted: int = 0
    failed: int = 0
    first_failure: Optional[str] = None
    # Engine.fingerprint() after the last query, while no update came since
    fingerprint: Optional[tuple] = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what
            print(f"perfbench: op {self.attempted} failed: {what}",
                  file=sys.stderr)

    def state_ok(self) -> bool:
        e = self.engine
        simple = e.reduction.simple
        if simple.vertices != self.model.vertices() or \
                frozenset(simple.edge_keys()) != self.model.edges():
            self._fail("tracked simple graph differs from the op stream's")
            return False
        try:
            e.reduction.check_invariants()
        except AssertionError as exc:
            self._fail(f"reduction invariant: {exc}")
            return False
        if e.current.graph != e.reduction.multigraph:
            self._fail("served graph differs from the reduction image")
            return False
        return True

    def update(self, kind: str, u: int, v: int) -> None:
        self.attempted += 1
        self.fingerprint = None
        op = InsertEdge(u, v) if kind == "insert" else DeleteEdge(u, v)
        self.model.apply(kind, u, v)
        gc.collect()
        t0 = perf_counter()
        try:
            conn.engine_update(self.engine, op)
        except Exception:
            self._fail(traceback.format_exc())
            return
        dt = perf_counter() - t0
        if self.state_ok():
            self.update_s.append(dt)

    def query(self, u: int, v: int) -> None:
        self.attempted += 1
        before = self.fingerprint
        if before is None:
            before = self.engine.fingerprint()
        self.fingerprint = None
        gc.collect()
        t0 = perf_counter()
        try:
            got = conn.engine_query(self.engine, u, v)
        except Exception:
            self._fail(traceback.format_exc())
            return
        dt = perf_counter() - t0
        t1 = perf_counter()
        want = self.model.c_connected(u, v, self.wl.c)
        self.check_s.append(perf_counter() - t1)
        self.fingerprint = self.engine.fingerprint()
        if got is not want:
            self._fail(f"query({u},{v}) answered {got!r}, expected {want}")
        elif self.fingerprint != before:
            self._fail(f"query({u},{v}) changed the engine state")
        else:
            self.answers[want] += 1
            self.query_s.append(dt)


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, replay whole rounds until `seconds` have passed (and at least
    min_rounds), and return the result record."""
    stream = OpStream(wl, seed)
    rounds = stream.rounds()
    initial = MultiGraph.from_edges(stream.initial_vertices,
                                    stream.initial_edges)
    model = Model(stream.initial_vertices, stream.initial_edges)
    model.c_connected(0, 1, wl.c)        # networkx's lazy imports, not ours
    gc.collect()
    rss_before = _rss_bytes()
    setup_s: List[float] = []

    def set_up() -> conn.Engine:
        g = initial.copy()
        gc.collect()
        t0 = perf_counter()
        e = conn.engine_preprocess(g, wl.c)
        setup_s.append(perf_counter() - t0)
        return e

    rep = Replay(wl, set_up(), model)
    if not rep.state_ok():
        raise RuntimeError(f"engine state after setup: {rep.first_failure}")
    stats_from = len(rep.engine.query_stats)
    steps_from = rep.engine.scheduler.work_stats()["total_steps"]
    n_rounds = 0
    with traced() if trace else nullcontext() as tr:
        start = perf_counter()
        while n_rounds < min_rounds(wl) or perf_counter() - start < seconds:
            for kind, u, v in next(rounds):
                if kind == "query":
                    rep.query(u, v)
                else:
                    rep.update(kind, u, v)
            n_rounds += 1
        wall = perf_counter() - start
    peak_rss_mb = (_peak_rss_bytes() - rss_before) / 2 ** 20
    query_stats = rep.engine.query_stats[stats_from:]
    steps_charged = (rep.engine.scheduler.work_stats()["total_steps"]
                     - steps_from)
    rep.engine = None
    if not trace:
        for _ in range(EXTRA_SETUPS):
            set_up()
    engine_s = sum(rep.update_s) + sum(rep.query_s)
    done = len(rep.update_s) + len(rep.query_s)
    update_ms = [x * 1e3 for x in rep.update_s]
    query_ms = [x * 1e3 for x in rep.query_s]
    if trace:
        metrics = layer_metrics(tr, len(rep.update_s), query_stats,
                                steps_charged)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "update_p50_ms": statistics.median(update_ms),
            "update_p90_ms": p90(update_ms),
            "query_p50_ms": statistics.median(query_ms),
            "query_p90_ms": p90(query_ms),
            "ops_per_s": done / engine_s,
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "correct": (rep.failed == 0 and rep.answers[True] > 0
                    and rep.answers[False] > 0),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "rounds": n_rounds,
        "updates": len(rep.update_s),
        "queries": len(rep.query_s),
        "answers_true": rep.answers[True],
        "answers_false": rep.answers[False],
        "wall_s": wall,
        "engine_s": engine_s,
        "engine_ms_per_op": engine_s / done * 1e3,
        "check_p50_ms": statistics.median(rep.check_s) * 1e3,
        "wrapped_calls": sum(tr.calls.values()) if trace else 0,
        "update_ms": update_ms,
        "query_ms": query_ms,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
