#!/usr/bin/env python3
"""Interleaved A/B timing of two source trees of the engine in one process.

Usage: python3 scripts/ab_timing.py TREE_A TREE_B
           [--workload churn-communities] [--seed 1] [--rounds 150]

Each tree is a checkout of this repository.  Its src/dynacut is imported
under a package name of its own (dynacut_a, dynacut_b), so both engines
live in one interpreter.  One op stream of perfbench/workloads.py (loaded
from this repository's file and not changed) is replayed into both: each
op runs on both engines, with a full garbage collection before each timed
call and the side that runs first alternating from op to op.  A host whose
speed drifts between runs slows both sides alike, which separate perfbench
runs cannot show.

Prints each side's update and query p50 and p90 in ms, the median over
ops of B's time divided by A's for updates and for queries, and each
side's scheduler.impl.steps at the end.  Exits 1 if the two engines answer
a query differently, or record it differently: the h_vertices, h_edges and
expansion of each query's Engine.query_stats entry must agree.
"""

import argparse
import gc
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from replay_digest import _workloads  # noqa: E402


def load_engine(tree: Path, name: str):
    """The dynacut package of `tree`, imported as `name`; returns its
    connectivity and multigraph modules."""
    pkg = Path(tree).resolve() / "src" / "dynacut"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return (importlib.import_module(f"{name}.connectivity"),
            importlib.import_module(f"{name}.multigraph"))


STATS = ("h_vertices", "h_edges", "expansion")


class Side:
    """One engine of the pair and the times of its calls, in seconds."""

    def __init__(self, label: str, tree: Path, stream, c: int):
        self.label, self.tree = label, tree
        self.conn, self.mg = load_engine(tree, f"dynacut_{label.lower()}")
        self.engine = self.conn.engine_preprocess(
            self.mg.MultiGraph.from_edges(stream.initial_vertices,
                                          stream.initial_edges), c)
        self.times = {"update": [], "query": []}

    def run(self, kind: str, u: int, v: int):
        """Time one op; returns a query's answer and the STATS of its
        query_stats entry, None for an update."""
        if kind != "query":
            op = (self.mg.InsertEdge if kind == "insert"
                  else self.mg.DeleteEdge)(u, v)
        gc.collect()
        t0 = perf_counter()
        if kind == "query":
            out = self.conn.engine_query(self.engine, u, v)
        else:
            out = self.conn.engine_update(self.engine, op)
        dt = perf_counter() - t0
        self.times["query" if kind == "query" else "update"].append(dt)
        if kind != "query":
            return None
        entry = self.engine.query_stats[-1]
        return out, tuple(entry[k] for k in STATS)


def _ms(samples, q: int) -> str:
    """The q-th percentile of samples in ms (q in 10, 20, ..., 90)."""
    if len(samples) < 2:
        return "n/a"
    return f"{statistics.quantiles(samples, n=10)[q // 10 - 1] * 1e3:.3f}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", default="churn-communities")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=150)
    args = ap.parse_args()
    bench = _workloads()
    wl = bench.WORKLOADS[args.workload]
    stream = bench.OpStream(wl, args.seed)
    sides = [Side("A", args.tree_a, stream, wl.c),
             Side("B", args.tree_b, stream, wl.c)]
    rounds = stream.rounds()
    n = 0
    for _ in range(args.rounds):
        for kind, u, v in next(rounds):
            first = n % 2
            answers = [None, None]
            for i in (first, 1 - first):
                answers[i] = sides[i].run(kind, u, v)
            n += 1
            if answers[0] != answers[1]:
                (ans_a, stats_a), (ans_b, stats_b) = answers
                print(f"op {n}: {kind}({u},{v}) answered {ans_a} with "
                      f"{dict(zip(STATS, stats_a))} on A and {ans_b} with "
                      f"{dict(zip(STATS, stats_b))} on B", flush=True)
                return 1
    a, b = sides
    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds} "
          f"updates={len(a.times['update'])} "
          f"queries={len(a.times['query'])}")
    for s in sides:
        t = s.times
        print(f"{s.label} update_p50={_ms(t['update'], 50)} "
              f"update_p90={_ms(t['update'], 90)} "
              f"query_p50={_ms(t['query'], 50)} "
              f"query_p90={_ms(t['query'], 90)} ms "
              f"steps={s.engine.scheduler.impl.steps} tree={s.tree}")
    ratios = {k: statistics.median(y / x for x, y in zip(a.times[k],
                                                         b.times[k]))
              for k in ("update", "query")}
    print(f"B/A median per-op ratio: update={ratios['update']:.3f} "
          f"query={ratios['query']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
