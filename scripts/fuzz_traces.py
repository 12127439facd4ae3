#!/usr/bin/env python3
"""Differential fuzz: replay many random traces with oracle checking.

Usage: python3 scripts/fuzz_traces.py [--traces 50] [--n 12] [--ops 100]
       [--c 2 [3 ...]] [--seed 0]
Runs the same traces at every strength given to --c, one strength after
another.  Exits nonzero on the first mismatch (the harness prints the
minimized reproduction trace).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynacut.harness import gen_workload, run_trace  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--traces", type=int, default=50)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--ops", type=int, default=100)
    ap.add_argument("--c", type=int, nargs="+", default=[2])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--query-rate", type=float, default=0.2)
    args = ap.parse_args()
    t0 = time.time()
    for c in args.c:
        for i in range(args.traces):
            lines = gen_workload(args.n, args.ops, seed=args.seed + i,
                                 query_rate=args.query_rate)
            status = run_trace(None, c, oracle_check=True, lines=lines)
            if status != 0:
                print(f"c={c} trace seed={args.seed + i} failed with "
                      f"status {status}")
                return status
            print(f"c={c} [{i + 1}/{args.traces}] seed={args.seed + i} ok "
                  f"({time.time() - t0:.1f}s elapsed)")
    print(f"all {args.traces} traces ok at c = "
          f"{', '.join(map(str, args.c))} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
