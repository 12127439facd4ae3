#!/usr/bin/env python3
"""Exactness digests of the engine on the benchmark's op streams.

Usage: python3 scripts/replay_digest.py [--rounds 30] [--seeds 1 2 3]

For each workload of perfbench/workloads.py and each seed, replays the
first --rounds rounds of the op stream through engine_preprocess,
engine_update and engine_query, and prints one sha1 over every answer,
every query_stats entry and Engine.fingerprint() after set-up and after
every op.  Two versions of the engine that print the same lines gave the
same answers and reached the same states.  The workload module is loaded
from its file and not changed.
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dynacut.connectivity import (engine_preprocess, engine_query,  # noqa: E402
                                  engine_update)
from dynacut.multigraph import DeleteEdge, InsertEdge, MultiGraph  # noqa: E402


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def digest(bench, wl, seed: int, rounds: int) -> str:
    stream = bench.OpStream(wl, seed)
    e = engine_preprocess(MultiGraph.from_edges(stream.initial_vertices,
                                                stream.initial_edges), wl.c)
    h = hashlib.sha1(repr(e.fingerprint()).encode())
    ops = stream.rounds()
    for _ in range(rounds):
        for kind, u, v in next(ops):
            if kind == "query":
                h.update(repr((engine_query(e, u, v),
                               e.query_stats[-1])).encode())
            elif kind == "delete":
                engine_update(e, DeleteEdge(u, v))
            else:
                engine_update(e, InsertEdge(u, v))
            h.update(repr(e.fingerprint()).encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    bench = _workloads()
    for name, wl in bench.WORKLOADS.items():
        for seed in args.seeds:
            print(f"{name} seed={seed} rounds={args.rounds} "
                  f"{digest(bench, wl, seed, args.rounds)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
