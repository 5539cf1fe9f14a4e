#!/usr/bin/env python3
"""rbminor benchmark: three closed-loop workloads on the pure-Python backend.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_exact|parity_large|construct_cli \
        --seed N --seconds T --trace 0|1

Every workload runs in fresh processes of its own (perfbench/workload.py)
with RBMINOR_PURE=1.  With --trace 0 the set-up is sampled several times
and the measured run reports the end-to-end metrics; with --trace 1 a
fixed number of rounds runs with every public function of the library
wrapped, and the per-layer metrics are reported instead.  Outputs are
checked here, after the workload process has exited, by computations that
do not come from the program (checks.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKERS
from layers import metric_names
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # workload processes timed to their first op; the last one is measured
RUN_TIMEOUT = 150  # seconds for the measured workload process


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def tail_percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/rbminor").rglob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def launch(cmd: list[str], env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    return started, proc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path("src/rbminor/__init__.py").is_file():
        return fail("no src/rbminor here; run from the root of an rbminor checkout")

    # one-off bytecode compilation after a checkout stays out of set-up time
    for tree in ("src", str(HERE)):
        compileall.compile_dir(tree, quiet=1)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = HERE / "work" / stamp
    results = HERE / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    env = dict(os.environ, RBMINOR_PURE="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, proc = launch(cmd + ["--setup-only"], env, 60)
                if proc.returncode != 0:
                    return fail(f"set-up failed:\n{proc.stderr}", 1)
                setup.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - started)
        started, proc = launch(cmd, env, RUN_TIMEOUT)
        if proc.returncode != 0:
            return fail(f"workload process exited {proc.returncode}:\n{proc.stderr}", 1)
        child = json.loads((workdir / "child.json").read_text())
        setup.append(child["ready"] - started)

        checker = CHECKERS[args.workload](args.seed, workdir)
        problems = 0
        with open(workdir / "records.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["failed"] and "error" in rec:
                    print(f"op failed: {rec['error']}", file=sys.stderr)
                    continue
                if rec["failed"] and "stdout" not in rec:
                    continue
                found = checker.check(rec)
                if found:
                    problems += 1
                    if problems <= 10:
                        print(f"check failed (round {rec['round']}): {found}", file=sys.stderr)
        if args.trace:
            shutil.move(str(workdir / "spans.jsonl.gz"), results / f"{stamp}-spans.jsonl.gz")
    except subprocess.TimeoutExpired:
        return fail("workload process did not finish in time", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [seconds for _, seconds, failed in child["timings"] if not failed]
    tail_pct = WORKLOADS[args.workload].tail_pct
    end_to_end = {
        "ops_per_s": {"value": len(done) / sum(s for _, s, _ in child["timings"]),
                      "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(done) * 1000, "unit": "ms"},
        "op_tail_ms": {"value": tail_percentile(done, tail_pct) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": child["peak_rss_kb"] / 1024, "unit": "MB"},
    }
    if not args.trace:
        end_to_end["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics = end_to_end
    else:
        layers = child["layers"]
        metrics = {name: layers.get(name, {"value": 0, "unit": unit})
                   for name, unit in metric_names()}
    prov = dict(child["provenance"], commit=commit(), src_sha256=source_digest(),
                platform=platform.platform())
    result = {"correct": problems == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=child["rounds"], tail_pct=tail_pct,
                  setup_samples_s=setup, end_to_end=end_to_end, provenance=prov,
                  timings=child["timings"])
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: backend {prov['kernel_backend']}, "
          f"Python {prov['python']}, commit {prov['commit']}, "
          f"{child['rounds']} rounds, tail = p{tail_pct}")
    for name, m in end_to_end.items():
        print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {child['attempted']}, failed {child['failed']}, "
          f"check problems {problems}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
