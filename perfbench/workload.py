"""One workload process: set up, run timed rounds, record every output.

Started by run.py, once per set-up sample and once for the measured run:

    python3 perfbench/workload.py --workload W --seed S --seconds T \
        --trace 0|1 --workdir DIR [--setup-only]

Each op's input is built just before the op and dropped after it.  Only
the call into the program is timed.  Outputs are reduced to plain data and
written to DIR/records.jsonl for run.py to check (parity_large also pickles
its generated graphs there); timings, counts and the provenance go to
DIR/child.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import inputs


class Op:
    """prepare() -> args for call(); summarize(result, args) -> plain record."""

    __slots__ = ("prepare", "call", "summarize")

    def __init__(self, prepare, call, summarize):
        self.prepare = prepare
        self.call = call
        self.summarize = summarize


def side_list(side: dict, n: int) -> list:
    return [side.get(v) for v in range(n)]


def side_string(side: dict, n: int) -> str:
    return "".join("01?"[side.get(v, 2)] for v in range(n))


# Calls go through module attributes (oracles.hadwiger_oracle, ...) looked
# up at call time, so the traced run sees the rebound wrappers.


class OracleExact:
    tail_pct = 90  # inside the block of the 3rd and 4th slowest ops of a round
    min_ops = 100
    trace_rounds = 12

    def __init__(self, seed: int, workdir: Path):
        from rbminor import constructions, graphs, oracles, rb

        self.seed = seed
        self.constructions, self.graphs, self.oracles, self.rb = constructions, graphs, oracles, rb

    def setup(self) -> None:
        pass

    def ops(self, r: int) -> list[Op]:
        out = []
        for i, (kind, payload, _) in enumerate(inputs.oracle_round(self.seed, r)):
            prepare, call, summ = getattr(self, "_" + kind)(payload)
            out.append(Op(prepare, call,
                          lambda res, args, i=i, s=summ: {"index": i, "out": s(res, args)}))
        return out

    def _graph(self, payload):
        n, edges = payload
        return lambda: (self.graphs.Graph.from_edges(n, edges),)

    def _bip_hadwiger(self, payload):
        return (self._graph(payload),
                lambda g: self.oracles.max_bipartite_hadwiger(g),
                lambda res, args: {"value": res[0], "side": side_list(res[1].side, payload[0])})

    def _hadwiger(self, payload):
        return (self._graph(payload), lambda g: self.oracles.hadwiger_oracle(g),
                lambda v, args: {"value": v})

    def _tcl(self, payload):
        return (self._graph(payload), lambda g: self.oracles.tcl_oracle(g),
                lambda v, args: {"value": v})

    def _lb_experiment(self, payload):
        n, seed = payload

        def summary(res, args):
            trial = res.trials[0]
            return {"hadwiger": trial.hadwiger, "best_bipartite": trial.best_bipartite,
                    "edges": trial.edge_count, "min_gap": res.min_gap}

        return (lambda: (n, 1, seed),
                lambda n, trials, s: self.constructions.theorem_lb_experiment(n, trials, s),
                summary)

    def _rb_oracle(self, payload):
        n, triples = payload

        def summary(res, args):
            greedy, _ = self.rb.rb_extract_half(args[0], tuple(range(n)))
            return {"value": res[0], "side": side_list(res[1].side, n),
                    "greedy_kept": greedy.graph.edge_count}

        return (lambda: (self.graphs.ColoredGraph.from_edge_colors(n, triples),),
                lambda cg: self.oracles.max_rb_bipartite_oracle(cg),
                summary)

    def _topological_lb(self, t):
        return (lambda: (t,),
                lambda t: self.constructions.topological_lb_construction(t),
                lambda res, args: {"host_order": res.host_order, "tcl_value": res.tcl_value,
                                   "min_order": res.min_order,
                                   "no_bipartite_tk": res.no_bipartite_tk})


class ParityLarge:
    tail_pct = 75  # inside the block of the three rb_extract_half ops of a round
    min_ops = 40
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        from rbminor import graphs, rb

        self.bases = inputs.ParityBases(seed, workdir)
        self.graphs, self.rb = graphs, rb

    def setup(self) -> None:
        pass

    def ops(self, r: int) -> list[Op]:
        out = []
        for op, size, kind in inputs.parity_round():

            def prepare(size=size, kind=kind, op=op):
                # a fresh graph per op, so the lazy adjacency and sorted-edge
                # caches fill inside the timed call as for a one-shot user
                base = self.bases[size]
                edges = list(zip(base.u, base.v))
                red = frozenset(e for e, c in zip(edges, base.red_bits(kind)) if c)
                cg = self.graphs.ColoredGraph(self.graphs.Graph(base.n, frozenset(edges)), red)
                return (cg,) if op == "certify" else (cg, tuple(range(base.n)))

            if op == "certify":
                call, summ = (lambda cg: self.rb.rb_certify(cg)), self._certify_summary
            else:
                call, summ = (lambda cg, order: self.rb.rb_extract_half(cg, order)), \
                    self._extract_summary
            out.append(Op(prepare, call, (
                lambda res, args, op=op, size=size, kind=kind, s=summ:
                    {"op": op, "size": size, "kind": kind, "out": s(res, size)})))
        return out

    def _certify_summary(self, res, n: int) -> dict:
        if isinstance(res, self.rb.RBBipartition):
            return {"kind": "partition", "side": side_string(res.side, n)}
        return {"kind": "r_odd", "walk": list(res.walk), "red_count": res.red_count}

    @staticmethod
    def _extract_summary(res, n: int) -> dict:
        sub, part = res
        return {"side": side_string(part.side, n), "vertex_count": sub.graph.vertex_count,
                "kept_digest": list(inputs.edge_digest(a * n + b for a, b in sub.graph.edges)),
                "red_digest": list(inputs.edge_digest(a * n + b for a, b in sub.red))}


class ConstructCLI:
    tail_pct = 90  # pipeline on K_12 and K_13, which cost the same
    min_ops = 100
    trace_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        from rbminor import cli

        self.seed = seed
        self.cli = cli
        self.workdir = workdir

    def setup(self) -> None:
        for name, text in inputs.cli_files(self.seed).items():
            (self.workdir / name).write_text(text)

    def call(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def ops(self, r: int) -> list[Op]:
        d = str(self.workdir)
        out = []
        for label, argv, expected in inputs.cli_round():
            argv = [a.replace("{d}", d) for a in argv]
            out.append(Op((lambda argv=argv: (argv,)), self.call, (
                lambda res, args, label=label, expected=expected:
                    self._summary(res, label, expected))))
        return out

    def _summary(self, res, label: str, expected: int) -> dict:
        code, stdout = res
        if code == 0 and label.startswith(("pipeline_", "tk_build_")):
            payload = json.loads(stdout)["payload"]
            (self.workdir / f"{label}.json").write_text(json.dumps(payload))
        return {"label": label, "code": code, "stdout": stdout, "failed": code != expected}


WORKLOADS = {"oracle_exact": OracleExact, "parity_large": ParityLarge,
             "construct_cli": ConstructCLI}


def provenance() -> dict:
    from rbminor.kernels import KERNEL_BACKEND

    return {"kernel_backend": KERNEL_BACKEND, "python": platform.python_version(),
            "rbminor_pure": os.environ.get("RBMINOR_PURE")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)

    import rbminor
    from rbminor.kernels import KERNEL_BACKEND

    src = Path("src").resolve()
    if KERNEL_BACKEND != "python" or os.environ.get("RBMINOR_PURE") != "1":
        print(f"kernel backend {KERNEL_BACKEND!r} with RBMINOR_PURE="
              f"{os.environ.get('RBMINOR_PURE')!r}: the benchmark pins the pure-Python"
              " backend with RBMINOR_PURE=1", file=sys.stderr)
        return 3
    if Path(rbminor.__file__).resolve().parent.parent != src:
        print(f"rbminor imported from {rbminor.__file__}, not from ./src", file=sys.stderr)
        return 3

    work = WORKLOADS[args.workload](args.seed, workdir)
    work.setup()
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    timings: list[tuple[int, float, bool]] = []  # (round, seconds, failed) per op
    failed = attempted = 0
    ready = None
    r = 0
    with open(workdir / "records.jsonl", "w") as records:
        while True:
            for op in work.ops(r):
                call_args = op.prepare()
                gc.collect()
                if ready is None:
                    ready = time.perf_counter()
                    if args.setup_only:
                        print(json.dumps({"ready": ready}))
                        return 0
                if tracer:
                    tracer.op = attempted
                    tracer.active = True
                start = time.perf_counter()
                try:
                    res = op.call(*call_args)
                    error = None
                except Exception as exc:  # an op that raises counts as failed
                    res, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.active = False
                attempted += 1
                rec = {"failed": True, "error": error} if error else op.summarize(res, call_args)
                rec.setdefault("failed", False)
                rec["round"] = r
                failed += rec["failed"]
                timings.append((r, elapsed, rec["failed"]))
                records.write(json.dumps(rec) + "\n")
                del call_args, res, rec
            r += 1
            if tracer:
                if r >= work.trace_rounds:
                    break
            elif time.perf_counter() - ready >= args.seconds and attempted - failed >= work.min_ops:
                break
    summary = {
        "ready": ready,
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "timings": timings,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "provenance": provenance(),
    }
    if tracer:
        summary["layers"] = tracer.metrics()
        tracer.write_spans(workdir / "spans.jsonl.gz")
    (workdir / "child.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
