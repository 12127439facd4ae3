#!/usr/bin/env python3
"""Set-up time of the engine on the benchmark's seed graphs.

Usage: python3 scripts/setup_timing.py [--runs 200] [--seed 1]

For each workload of perfbench/workloads.py, builds the initial graph of
the op stream for --seed and times engine_preprocess on a fresh copy of it
--runs times, with a full garbage collection before each run, as the
benchmark's setup_s does.  Prints the minimum, the median, the quartiles
and the IQR in milliseconds, and the IQR as a share of the median.  The
workload module is loaded from its file and not changed.
"""

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "src"))

from dynacut.connectivity import engine_preprocess  # noqa: E402
from dynacut.multigraph import MultiGraph  # noqa: E402
from replay_digest import _workloads  # noqa: E402


def setup_ms(bench, wl, seed: int, runs: int):
    """engine_preprocess times in ms, one per run."""
    stream = bench.OpStream(wl, seed)
    initial = MultiGraph.from_edges(stream.initial_vertices,
                                    stream.initial_edges)
    out = []
    for _ in range(runs):
        g = initial.copy()
        gc.collect()
        t0 = perf_counter()
        engine_preprocess(g, wl.c)
        out.append((perf_counter() - t0) * 1e3)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = _workloads()
    for name, wl in bench.WORKLOADS.items():
        ms = setup_ms(bench, wl, args.seed, args.runs)
        q1, med, q3 = statistics.quantiles(ms, n=4)
        print(f"{name} seed={args.seed} runs={args.runs} "
              f"min={min(ms):.3f} median={med:.3f} q1={q1:.3f} "
              f"q3={q3:.3f} iqr={q3 - q1:.3f} ms "
              f"(iqr/median {(q3 - q1) / med:.2f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
