"""Command-line front end.

Every subcommand prints exactly one JSON document to stdout:
{"status": "ok"|"certificate"|"error", "payload": {...}, "elapsed_ms": n}.
The payload is deterministic for fixed inputs and seeds; elapsed_ms is
the only field allowed to vary between runs.  Short human summaries go
to stderr.  Exit codes: 0 success, 2 bad input, 3 instance too large,
5 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import comb
from pathlib import Path

from . import constructions, extract, io, models, oracles, rb, topological
from .errors import (
    FormulaUndefined,
    HostTooSmall,
    InstanceTooLarge,
    NotAModel,
    NotInLift,
    ParseError,
)
from .graphs import Bipartition, Graph, is_bipartite

# experiment --trials cap: the payload holds one row per trial (about 1 MB
# at the cap), and a trial at n = 10 takes about 0.7 s on the pure backend
MAX_TRIALS = 10_000
# aux cap on the vertices its payload lists, one per vertex of each of the
# C(k, 2) canonical paths, which grow with the tree depths: 60 paths of
# 2000 vertices with joined far ends list 7.1 * 10^6 (a 46 MB document,
# about 2 s and 200 MB on the pure backend), while a model file under the
# input cap can ask for about 2.7 * 10^8
MAX_AUX_PATH_VERTICES = 10_000_000

_USAGE_ERRORS = (ParseError, NotAModel, NotInLift, HostTooSmall, FormulaUndefined, ValueError, KeyError, OSError)


def _read(path: str) -> str:
    return Path(path).read_text()


def _model_payload(model: models.MinorModel) -> dict:
    return {
        "host": io.graph_json(model.host),
        "parts": [list(p) for p in model.parts],
        "roots": list(model.roots),
    }


def _aux_payload(aux: models.AuxiliaryGraph) -> dict:
    k = aux.order
    return {
        "colored": io.colored_json(aux.colored),
        "paths": [
            {"pair": [i, j], "path": list(aux.path(i, j))}
            for i in range(k)
            for j in range(i + 1, k)
        ],
    }


def _pipeline_payload(report: extract.PipelineReport) -> dict:
    return {
        "m_achieved": report.m_achieved,
        "parts": [list(p) for p in report.parts],
        "roots": list(report.roots),
        "lift_edges": [list(e) for e in report.lift_edges],
        "partition": io.side_json(report.partition_witness.side),
    }


def _tk_payload(model: topological.TopologicalModel) -> dict:
    return {
        "branch": list(model.branch),
        "paths": [
            {"pair": [a, b], "path": list(path)}
            for (a, b), path in sorted(model.paths.items())
        ],
        "side": io.side_json(model.side),
        "host_order": model.host_order,
        "escape": model.escape,
        "used": len(model.used_vertices()),
    }


def _cmd_certify(args) -> tuple[str, dict]:
    cg = io.expect_colored(io.parse_graph(_read(args.file)))
    result = rb.rb_certify(cg)
    if isinstance(result, rb.RBBipartition):
        print(f"certify: RB-bipartite on {cg.graph.vertex_count} vertices", file=sys.stderr)
        return "ok", {"kind": "partition", "side": io.side_json(result.side)}
    print(f"certify: R-odd circuit of length {len(result.walk) - 1}", file=sys.stderr)
    return "certificate", {
        "kind": "r_odd",
        "walk": list(result.walk),
        "red_count": result.red_count,
    }


def _cmd_extract_half(args) -> tuple[str, dict]:
    cg = io.expect_colored(io.parse_graph(_read(args.file)))
    order = tuple(range(cg.graph.vertex_count))
    sub, partition = rb.rb_extract_half(cg, order)
    stats = rb.extraction_stats(cg, sub, partition)
    print(
        f"extract-half: kept {stats['kept_edges']} of {stats['total_edges']} edges",
        file=sys.stderr,
    )
    return "ok", {
        "subgraph": io.colored_json(sub),
        "side": io.side_json(partition.side),
        "stats": stats,
    }


def _cmd_aux(args) -> tuple[str, dict]:
    model = io.parse_model(_read(args.file))
    aux = models._auxiliary(model)
    listed = aux.path_vertex_count()  # before any copy or path is made
    if listed > MAX_AUX_PATH_VERTICES:
        raise InstanceTooLarge(
            f"aux paths would list {listed} vertices (cap {MAX_AUX_PATH_VERTICES})"
        )
    model, aux = aux.minimized(model)
    print(f"aux: {aux.order} parts", file=sys.stderr)
    return "ok", {
        "minimized": _model_payload(model),
        "auxiliary": _aux_payload(aux),
    }


def _parse_edge_subset(text: str, order: int) -> list[tuple[int, int]]:
    if text == "all":
        return [(i, j) for i in range(order) for j in range(i + 1, order)]
    if text == "none":
        return []
    pairs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition("-")
        try:
            pairs.append((int(a), int(b)))
        except ValueError as exc:
            raise ParseError(f"bad edge selector {chunk!r}") from exc
    return pairs


def _cmd_lift(args) -> tuple[str, dict]:
    model = io.parse_model(_read(args.file))
    model, aux = models._auxiliary(model).minimized(model)
    if not isinstance(args.edges, str):  # argparse reads "lift FILE -- --" as edges=[]
        raise ParseError("bad edge selector '--'")
    sub = _parse_edge_subset(args.edges, aux.order)
    lifted = models.lift_subgraph(model, aux, sub)
    verdict = is_bipartite(lifted)
    payload = {
        "minimized_host": io.graph_json(model.host),
        "graph": io.graph_json(lifted),
        "aux_edges": [list(e) for e in sub],
    }
    if isinstance(verdict, Bipartition):
        payload["bipartite"] = True
        payload["witness"] = io.bipartition_json(verdict)
        print("lift: bipartite", file=sys.stderr)
        return "ok", payload
    payload["bipartite"] = False
    payload["witness"] = io.odd_cycle_json(verdict)
    print(f"lift: odd cycle of length {len(verdict)}", file=sys.stderr)
    return "certificate", payload


def _cmd_pipeline(args) -> tuple[str, dict]:
    model = io.parse_model_or_graph(_read(args.file))
    if isinstance(model, Graph):
        # plain graph: treat every vertex as its own part (complete hosts)
        model = models.MinorModel.create(model, [(v,) for v in range(model.vertex_count)])
    host = model.host
    report = extract.bipartite_minor_pipeline(host, model)
    checks = extract.validate_pipeline_report(host, report)
    payload = _pipeline_payload(report)
    payload["checks"] = checks
    print(f"pipeline: bipartite K_{report.m_achieved} minor", file=sys.stderr)
    return "ok", payload


def _cmd_tk_build(args) -> tuple[str, dict]:
    cg = io.expect_colored(io.parse_graph(_read(args.file)))
    model = topological.rb_topological_clique(cg, args.t)
    _, used = topological.validate_topological_model(
        cg, model, args.t, topological.budget_cap(args.t)
    )
    payload = _tk_payload(model)
    payload["budget_cap"] = topological.budget_cap(args.t)
    print(f"tk-build: TK_{args.t} using {used} vertices", file=sys.stderr)
    return "ok", payload


def _cmd_tk_bound(args) -> tuple[str, dict]:
    if args.t > io.MAX_INPUT_SIZE:
        raise InstanceTooLarge(f"t = {args.t} exceeds the cap {io.MAX_INPUT_SIZE}")
    bound = constructions.bipartite_tk_min_order(args.t)
    print(f"tk-bound: min order {bound.min_order}", file=sys.stderr)
    return "ok", {
        "t": bound.t,
        "per_side": list(bound.per_side),
        "min_order": bound.min_order,
        "argmin_side": bound.argmin_side,
    }


def _cmd_gh(args) -> tuple[str, dict]:
    h = io.expect_plain(io.parse_graph(_read(args.file)))
    # G(h) gets one vertex and two edges per non-edge of h: capped like an input
    missing = comb(h.vertex_count, 2) - len(h.edges)
    vertices, edges = h.vertex_count + missing, len(h.edges) + 2 * missing
    if max(vertices, edges) > io.MAX_INPUT_SIZE:
        raise InstanceTooLarge(
            f"G(h) would have {vertices} vertices and {edges} edges"
            f" (cap {io.MAX_INPUT_SIZE} each)"
        )
    host, parts = constructions.build_gh(h)
    payload = {
        "input": io.graph_json(h),
        "host": io.graph_json(host),
        "parts": [list(p) for p in parts],
        "subdivisions": host.vertex_count - h.vertex_count,
    }
    try:
        payload["hadwiger"] = oracles.hadwiger_oracle(host)
    except InstanceTooLarge:
        payload["hadwiger"] = None
    print(
        f"gh: host on {host.vertex_count} vertices"
        f" ({payload['subdivisions']} subdivisions)",
        file=sys.stderr,
    )
    return "ok", payload


def _cmd_oracle(args) -> tuple[str, dict]:
    g = io.expect_plain(io.parse_graph(_read(args.file)))
    if args.kind == "hadwiger":
        value = oracles.hadwiger_oracle(g)
        payload = {"kind": args.kind, "value": value}
    elif args.kind == "tcl":
        value = oracles.tcl_oracle(g)
        payload = {"kind": args.kind, "value": value}
    else:
        value, side = oracles.max_bipartite_hadwiger(g)
        payload = {
            "kind": args.kind,
            "value": value,
            "side": io.side_json(side.side),
        }
    print(f"oracle {args.kind}: {value}", file=sys.stderr)
    return "ok", payload


def _cmd_bound(args) -> tuple[str, dict]:
    import mpmath

    ev = constructions.bce_probability_bound(args.n)
    hp = constructions.bce_probability_bound_hp(args.n)
    rel = abs(float(hp) - ev.log_failure_bound) / abs(float(hp))
    print(
        f"bound: log failure {ev.log_failure_bound:.6g}"
        f" ({'certifies' if ev.certifies else 'does not certify'})",
        file=sys.stderr,
    )
    return "ok", {
        "n": ev.n,
        "s": ev.s,
        "log2_radicand": ev.log2_radicand,
        "log_failure_bound": ev.log_failure_bound,
        "log_failure_bound_hp": mpmath.nstr(hp, 24),
        "relative_error": rel,
        "certifies": ev.certifies,
    }


def _cmd_experiment(args) -> tuple[str, dict]:
    if args.trials > MAX_TRIALS:
        raise InstanceTooLarge(f"{args.trials} trials exceeds the cap {MAX_TRIALS}")
    result = constructions.theorem_lb_experiment(args.n, args.trials, args.seed)
    rows = [
        {
            "trial": t.trial,
            "seed": t.seed,
            "edges": t.edge_count,
            "hadwiger": t.hadwiger,
            "best_bipartite": t.best_bipartite,
        }
        for t in result.trials
    ]
    if args.jsonl:
        # the side file carries wall clock; the payload stays byte-stable
        with open(args.jsonl, "w") as fh:
            for t in result.trials:
                fh.write(
                    io.dumps(
                        {
                            "seed": t.seed,
                            "h": t.hadwiger,
                            "bipartite_h": t.best_bipartite,
                            "runtime_ms": t.runtime_ms,
                        }
                    )
                    + "\n"
                )
    print(
        f"experiment: n={args.n}, {args.trials} trials,"
        f" min gap {result.min_gap}",
        file=sys.stderr,
    )
    return "ok", {
        "n": result.n,
        "trials": rows,
        "min_gap": result.min_gap,
        "max_bipartite": result.max_bipartite,
    }


_PIPELINE_DOC = {"m_achieved": int, "parts": [[int]], "roots": [int],
                 "lift_edges": [(int, int)], "partition": dict}
_TK_DOC = {"branch": [int], "paths": [{"pair": (int, int), "path": [int]}],
           "side": dict, "host_order": int, "escape": bool}


def _cmd_verify(args) -> tuple[str, dict]:
    doc = json.loads(_read(args.json))
    if args.kind == "pipeline":
        # a minor model has at least one part, each holding its own root
        if not io.has_shape(doc, _PIPELINE_DOC) or not (
            doc["m_achieved"] == len(doc["parts"]) == len(doc["roots"]) >= 1
            and all(r in p for r, p in zip(doc["roots"], doc["parts"]))
        ):
            raise ParseError("malformed pipeline document")
        g = io.expect_plain(io.parse_graph(_read(args.graph)))
        report = extract.PipelineReport(
            m_achieved=doc["m_achieved"],
            parts=tuple(tuple(p) for p in doc["parts"]),
            roots=tuple(doc["roots"]),
            lift_edges=tuple((e[0], e[1]) for e in doc["lift_edges"]),
            partition_witness=Bipartition(io.side_from_json(doc["partition"])),
        )
        checks = extract.validate_pipeline_report(g, report)
        print(f"verify pipeline: {'ok' if checks['all'] else 'FAILED'}", file=sys.stderr)
        return ("ok" if checks["all"] else "error"), {"checks": checks}
    # budget_cap and used are optional, but ints when present
    cap, used = (doc.get("budget_cap"), doc.get("used")) if isinstance(doc, dict) else (None, None)
    if not io.has_shape(doc, _TK_DOC) or not all(v is None or type(v) is int for v in (cap, used)):
        raise ParseError("malformed tk document")
    cg = io.expect_colored(io.parse_graph(_read(args.graph)))
    if doc["host_order"] != cg.graph.vertex_count:
        raise ValueError(f"host_order {doc['host_order']} is not the graph's vertex count")
    paths = {(row["pair"][0], row["pair"][1]): tuple(row["path"]) for row in doc["paths"]}
    if len(paths) != len(doc["paths"]):
        raise ValueError("a branch pair is listed twice")
    model = topological.TopologicalModel(
        branch=tuple(doc["branch"]),
        paths=paths,
        side=io.side_from_json(doc["side"]),
        host_order=doc["host_order"],
        escape=doc["escape"],
    )
    t = len(model.branch)
    _, count = topological.validate_topological_model(cg, model, t, cap)
    if used is not None and used != count:
        raise ValueError(f"{count} vertices used, but the document says {used}")
    print("verify tk: ok", file=sys.stderr)
    return "ok", {"checks": {"all": True}, "t": t}


# built once per process: building the parser costs about 2 ms, some
# fifty parse_args calls, and in-process callers run main many times
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbminor",
        description="Red/Blue bipartite graph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="RB-bipartition or R-odd circuit")
    p.add_argument("file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("extract-half", help="RB-bipartite subgraph with half the edges")
    p.add_argument("file")
    p.set_defaults(func=_cmd_extract_half)

    p = sub.add_parser("aux", help="auxiliary graph of a minimized model")
    p.add_argument("file")
    p.set_defaults(func=_cmd_aux)

    p = sub.add_parser("lift", help="host subgraph for an auxiliary edge subset")
    p.add_argument("file")
    p.add_argument("edges", help="'all', 'none', or pairs like 0-1,1-2")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("pipeline", help="bipartite clique minor from a model")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("tk-build", help="RB-bipartite topological clique")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_tk_build)

    p = sub.add_parser("tk-bound", help="minimum order for a bipartite TK_t")
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_tk_bound)

    p = sub.add_parser("gh", help="complete a graph by subdividing non-edges")
    p.add_argument("file")
    p.set_defaults(func=_cmd_gh)

    p = sub.add_parser("oracle", help="exact small-instance parameters")
    p.add_argument("kind", choices=["hadwiger", "tcl", "bip-hadwiger"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bound", help="counting bound evaluation")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("experiment", help="gap experiment on subdivision hosts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jsonl", help="also write one JSON line per trial")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="re-check a serialized result")
    p.add_argument("kind", choices=["pipeline", "tk"])
    p.add_argument("json", help="path to a payload document")
    p.add_argument("--graph", required=True, help="host graph file")
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit(status: str, payload: dict, started: float) -> None:
    elapsed = int((time.monotonic() - started) * 1000)
    doc = {"status": status, "payload": payload, "elapsed_ms": elapsed}
    print(io.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        status, payload = args.func(args)
    except _USAGE_ERRORS as exc:
        _emit("error", {"code": type(exc).__name__, "message": str(exc)}, started)
        return 2
    except InstanceTooLarge as exc:
        _emit("error", {"code": "InstanceTooLarge", "message": str(exc)}, started)
        return 3
    except Exception as exc:  # pragma: no cover - internal invariants
        _emit("error", {"code": "Internal", "message": f"{type(exc).__name__}: {exc}"}, started)
        return 5
    _emit(status, payload, started)
    return 0 if status in ("ok", "certificate") else 2


if __name__ == "__main__":
    sys.exit(main())
