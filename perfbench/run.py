#!/usr/bin/env python3
"""Benchmark of the dynamic c-edge-connectivity engine.

Replays one seeded workload through engine_preprocess, engine_update and
engine_query, checks every output against a computation made apart from the
engine, prints every metric by name with its unit, writes the full record to
perfbench/results/, and prints as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 they are the per-layer ones, timed by wrappers around each layer's
public functions.

Usage (from the repository root):
    python3 perfbench/run.py --workload churn-communities --seed 1 \\
        --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("perfbench: the state checks use assert; run without -O")
    if not (ROOT / "src" / "dynacut" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    from layers import PER_LAYER
    from replay import END_TO_END, run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    res = run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1) + "\n")
    print(f"{res['workload']} seed={res['seed']} rounds={res['rounds']} "
          f"updates={res['updates']} queries={res['queries']} "
          f"(true {res['answers_true']}, false {res['answers_false']}) "
          f"engine_s={res['engine_s']:.3f} wall_s={res['wall_s']:.3f} "
          f"check_p50_ms={res['check_p50_ms']:.3f}")
    for name, value in res["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
