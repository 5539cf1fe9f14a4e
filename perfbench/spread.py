#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads oracle_exact parity_large \
        --seeds 1 2 3 4 5 --seconds 10 [--trace 0] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median.  Runs are
sequential, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    run = Path(__file__).resolve().parent / "run.py"
    summary = {}
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            rows.append(json.loads(proc.stdout.splitlines()[-1]))
            r = rows[-1]
            print(f"{workload} seed {seed}: correct {r['correct']} attempted {r['attempted']}"
                  f" failed {r['failed']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in r["metrics"].items()
                      if not k.endswith(".self_ms")), flush=True)
        stats = {}
        for name in rows[0]["metrics"]:
            values = [row["metrics"][name]["value"] for row in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0, "values": values}
        shares = {row["failed"] / row["attempted"] for row in rows}
        summary[workload] = {"seeds": args.seeds, "failed_share": sorted(shares),
                             "correct": all(row["correct"] for row in rows),
                             "metrics": stats}
        for name, s in stats.items():
            if args.trace and not name.endswith(".calls"):
                continue
            print(f"  {workload:14s} {name:40s} median {s['median']:.5g}"
                  f"  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
        print(f"  failed share: {sorted(shares)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
