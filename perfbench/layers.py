"""Per-layer tracing by wrapping rbminor's public functions from outside.

The library imports helpers by name (`from .kernels import find_kt_model`),
so each wrapper is rebound in every rbminor module that holds the original
object, not only in the defining one.  A span (name, start, end, parent,
op id) is kept in memory for every call made while an op is being timed;
calls made while building inputs or checking outputs are not recorded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter_ns

# layer -> (module, [(attribute path, extra count name, extra predicate)])
LAYERS = {
    "kernels": ("rbminor.kernels", [
        (name, "found", lambda res, exc: exc is None and res is not None and res is not False)
        for name in ("find_kt_model", "find_compatible", "has_tk")
    ]),
    "oracles": ("rbminor.oracles", [
        (name, None, None)
        for name in ("hadwiger_oracle", "max_bipartite_hadwiger", "max_rb_bipartite_oracle",
                     "tcl_oracle")
    ]),
    "constructions": ("rbminor.constructions", [
        (name, None, None)
        for name in ("gh_max_bipartite_hadwiger", "theorem_lb_experiment",
                     "topological_lb_construction", "build_gh")
    ]),
    "graphs": ("rbminor.graphs", [
        ("Graph.from_edges", None, None),
        ("ColoredGraph.from_edge_colors", None, None),
        ("is_bipartite", None, None),
    ]),
    "rb": ("rbminor.rb", [
        (name, None, None) for name in ("rb_certify", "rb_extract_half", "extraction_stats")
    ]),
    "models": ("rbminor.models", [
        (name, None, None) for name in ("minimize_model", "build_auxiliary", "lift_subgraph")
    ]),
    "extract": ("rbminor.extract", [
        ("bipartite_minor_pipeline", "m_achieved_sum",
         lambda res, exc: res.m_achieved if exc is None else 0),
        ("build_projector", "pool_exhausted",
         lambda res, exc: type(exc).__name__ == "PoolExhausted"),
        ("connect_pair", "witness",
         lambda res, exc: exc is None and type(res).__name__ == "RBCliqueWitness"),
        ("greedy_compatible_partition", None, None),
        ("validate_pipeline_report", None, None),
    ]),
    "topological": ("rbminor.topological", [
        ("rb_topological_clique", "escape", lambda res, exc: exc is None and res.escape),
        ("validate_topological_model", None, None),
        ("swap_colors_at", None, None),
    ]),
    "io": ("rbminor.io", [(name, None, None) for name in ("parse_graph", "parse_model", "dumps")]),
    "cli": ("rbminor.cli", [("main", "exit5", lambda res, exc: exc is None and res == 5)]),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in table order."""
    out = []
    for layer, (_, funcs) in LAYERS.items():
        for attr, extra, _ in funcs:
            base = f"{layer}.{attr}"
            out += [(f"{base}.calls", "count"), (f"{base}.self_ms", "ms")]
            if extra:
                out.append((f"{base}.{extra}", "count"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[list] = []  # [span index, time in wrapped children]
        self.op = -1
        self.active = False
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.extra: list[int] = []

    def _wrap(self, fn, name: str, predicate):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.extra.append(0)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            res = exc = None
            start = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans[span] = (idx, start, end, parent, tracer.op)
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += end - start - frame[1]
                if predicate is not None:
                    tracer.extra[idx] += int(predicate(res, exc))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        loaded = [m for name, m in sys.modules.items()
                  if name == "rbminor" or name.startswith("rbminor.")]
        for layer, (modname, funcs) in LAYERS.items():
            mod = sys.modules[modname]
            for attr, _, predicate in funcs:
                name = f"{layer}.{attr}"
                if "." in attr:  # classmethod on a class
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    func = cls.__dict__[meth].__func__
                    setattr(cls, meth, classmethod(self._wrap(func, name, predicate)))
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(orig, name, predicate)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, new)

    def metrics(self) -> dict[str, dict]:
        out = {}
        extras = {f"{layer}.{attr}": extra
                  for layer, (_, funcs) in LAYERS.items() for attr, extra, _ in funcs}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = {"value": self.calls[i], "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_ns[i] / 1e6, "unit": "ms"}
            if extras[name]:
                out[f"{name}.{extras[name]}"] = {"value": self.extra[i], "unit": "count"}
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
