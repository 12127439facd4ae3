#!/usr/bin/env python3
"""Steadiness check: run each workload several times, one seed per run, and
print each end-to-end metric's median, quartiles and quartile spread (the
distance between the quartiles as a share of the median) next to the bound
BENCHMARK.json sets for it.

Every workload in BENCHMARK.json is run with seeds 1 to --runs, for its
run_seconds, one run after another, each in its own process, as the
benchmark is run for a measurement.  The table is also written to
perfbench/results/steady-<date and time>.json.

Usage (from the repository root):
    python3 perfbench/steady.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    stamp = time.strftime("%Y%m%d-%H%M%S")
    table = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{wl} seed {seed}: exit {proc.returncode}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med,
                               "bound": m["bound"], "values": values}
        table[wl] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"]
                                    for r in runs}),
        }
        print(f"\n{wl}: correct={table[wl]['correct']} "
              f"failed share={table[wl]['failed_share']}")
        print(f"  {'metric':<15}{'median':>11}{'q1':>11}{'q3':>11}"
              f"{'spread':>9}{'bound':>7}")
        for name, r in rows.items():
            flag = "" if r["spread"] < r["bound"] / 3 else "  > bound/3"
            print(f"  {name:<15}{r['median']:>11.4f}{r['q1']:>11.4f}"
                  f"{r['q3']:>11.4f}{r['spread']:>9.3f}{r['bound']:>7}{flag}")
        print(flush=True)
    out = HERE / "results" / f"steady-{stamp}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
