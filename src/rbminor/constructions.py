"""Seeded constructions and the counting bound.

Sampling is counter-based: value(seed, k) is the k-th output of a
splitmix64 stream, so results never depend on call order and a (seed,
index) pair always reproduces the same bit.  On top of that sit the
subdivision host G(H), the branch-bipartition search it admits, the
high-probability failure bound for balanced chromatic equipartitions,
and two experiment drivers used by the command line.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import comb

from .errors import FormulaUndefined, InstanceTooLarge
from .graphs import Bipartition, ColoredGraph, Graph
from .kernels import has_tk
from .models import MinorModel
from .oracles import (
    _bipartitions,
    _crossing_masks,
    _max_hadwiger_scan,
    _rb_kept,
    hadwiger_oracle,
    tcl_oracle,
)

# bce_probability_bound cap: its doubles square s = n / sqrt(log2 n -
# 3 log2 log2 n), which leaves their range between n = 2^516 and 2^518
MAX_BOUND_N = 2**512

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15
_DERIVE_SALT = 0xD1B54A32D192ED03


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def keyed_value(seed: int, index: int) -> int:
    """index-th 64-bit output of the splitmix64 stream started at seed."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def keyed_uniform(seed: int, index: int) -> float:
    """Uniform in [0, 1) with 53 random bits."""
    return (keyed_value(seed, index) >> 11) / float(1 << 53)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for sub-experiments, decoupled from edge sampling."""
    return keyed_value(seed ^ _DERIVE_SALT, index)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one stream draw per vertex pair in lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if keyed_uniform(seed, k) < p:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


def random_coloring(g: Graph, seed: int, red_probability: float = 0.5) -> ColoredGraph:
    """Independent Red/Blue flip per edge, indexed by the sorted edge order."""
    if not 0.0 <= red_probability <= 1.0:
        raise ValueError("red_probability must lie in [0, 1]")
    red = []
    for k, e in enumerate(g.sorted_edges):
        if keyed_uniform(seed, k) < red_probability:
            red.append(e)
    return ColoredGraph(g, frozenset(red))


def build_gh(h: Graph) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Complete the graph h by subdividing every missing edge once.

    Vertices 0..n-1 keep their labels; each non-adjacent pair (u, v), in
    lex order, gets a fresh vertex adjacent to exactly u and v.  Returns
    the host together with the branch decomposition that witnesses a K_n
    minor: part i is vertex i plus the subdivision vertices of its
    missing pairs (u, v) with u == i.
    """
    n = h.vertex_count
    edges = list(h.edges)
    parts: list[list[int]] = [[i] for i in range(n)]
    nxt = n
    for u in range(n):
        for v in range(u + 1, n):
            if not h.has_edge(u, v):
                edges.append((u, nxt))
                edges.append((nxt, v))
                parts[u].append(nxt)
                nxt += 1
    return Graph.from_edges(nxt, edges), tuple(tuple(p) for p in parts)


def gh_model(h: Graph) -> tuple[Graph, MinorModel]:
    """The host G(h) with its canonical K_n model (already minimised)."""
    host, parts = build_gh(h)
    return host, MinorModel.create(host, parts, tuple(range(h.vertex_count)))


@dataclass(frozen=True)
class BoundEvaluation:
    n: int
    s: float
    log2_radicand: float
    log_failure_bound: float

    @property
    def certifies(self) -> bool:
        return self.log_failure_bound < 0.0


def _bound_terms(n, log2, ln, sqrt, power):
    """Shared shape so the float and high-precision paths cannot drift."""
    radicand = log2(n) - 3 * log2(log2(n))
    if radicand <= 0:
        raise FormulaUndefined(
            f"log2(n) - 3*log2(log2(n)) = {radicand} is not positive for n={n}"
        )
    s = n / sqrt(radicand)
    # ln of: 2^n candidate subgraph patterns, times at most n^n vertex
    # partitions into s parts, each pairwise-joined with probability at
    # most exp(-C(s,2) * 2^(-(n/s)^2)); note (n/s)^2 is the radicand.
    log_bound = n * ln(2) + n * ln(n) - (s * (s - 1) / 2) * power(2, -radicand)
    return radicand, s, log_bound


def bce_probability_bound(n: int) -> BoundEvaluation:
    """Log of the union bound that some s-part minor model survives in a
    uniformly random graph on n vertices, with the part count pinned at
    s = n/sqrt(log2 n - 3 log2 log2 n).

    A negative value certifies the separation at order n: some graph h on
    n vertices exists whose subdivision host G(h) has no bipartite
    subgraph with a K_s minor, while h(G(h)) = n itself.  Raises
    FormulaUndefined when the inner expression is not positive (small n),
    and InstanceTooLarge above MAX_BOUND_N, where a double overflows.
    """
    if n < 2:
        raise FormulaUndefined("n must be at least 2")
    if n > MAX_BOUND_N:
        raise InstanceTooLarge(
            f"n has {n.bit_length()} bits; the float evaluation is capped at 2^512"
        )
    radicand, s, log_bound = _bound_terms(
        n, math.log2, math.log, math.sqrt, lambda b, e: float(b) ** e
    )
    return BoundEvaluation(n, s, radicand, log_bound)


def bce_probability_bound_hp(n: int, precision_bits: int = 256) -> mpmath.mpf:
    """Same exponent at fixed binary precision, for error control."""
    import mpmath

    if n < 2:
        raise FormulaUndefined("n must be at least 2")
    with mpmath.workprec(precision_bits):
        ln2 = mpmath.log(2)
        _, _, log_bound = _bound_terms(
            mpmath.mpf(n),
            lambda x: mpmath.log(x) / ln2,
            mpmath.log,
            mpmath.sqrt,
            mpmath.power,
        )
        return +log_bound


def gh_max_bipartite_hadwiger(h: Graph) -> tuple[int, Bipartition]:
    """Maximum Hadwiger number over bipartite subgraphs of G(h).

    A branch bipartition X of the n core vertices keeps the h-edges that
    cross it plus both half-edges of every subdivided pair inside a side;
    the best bipartite subgraph of G(h) arises this way, so only 2^(n-1)
    candidates need scanning.  Suppressing the subdivision vertex of each
    kept pair of half-edges turns it back into an edge, which changes no
    clique minor, so a bipartition (the side-1 vertex mask `ones`) is valued
    on the graph on the n core vertices whose vertex v has adjacency mask

        (N_h(v) & other side) | (non-neighbours of v & own side),

    the kept-mask rule `oracles._rb_kept` of the complete graph coloured
    Red on h's edges, and G(h) itself is never built.  The returned
    bipartition covers the core vertices only.
    """
    adj = h.adjacency_masks
    # no K_{n+1} minor on n vertices
    return _max_hadwiger_scan(adj, _rb_kept(adj), h.vertex_count)


@dataclass(frozen=True)
class LowerBoundTrial:
    trial: int
    seed: int
    edge_count: int
    hadwiger: int
    best_bipartite: int
    runtime_ms: int  # wall clock, excluded from deterministic payloads


@dataclass(frozen=True)
class LowerBoundExperiment:
    n: int
    trials: tuple[LowerBoundTrial, ...]

    @property
    def min_gap(self) -> int:
        return min(t.hadwiger - t.best_bipartite for t in self.trials)

    @property
    def max_bipartite(self) -> int:
        return max(t.best_bipartite for t in self.trials)


def theorem_lb_experiment(n: int, trials: int, seed: int) -> LowerBoundExperiment:
    """Sample graphs h on n vertices; compare h(G(h)) = n with the best
    bipartite subgraph of G(h).  Each trial uses an independent derived
    seed, so any subset of trials reproduces bit-for-bit.
    """
    if not 2 <= n <= 10:
        raise ValueError("n must lie in 2..10")
    if trials < 1:
        raise ValueError("at least one trial required")
    rows = []
    for k in range(trials):
        started = time.monotonic()
        child = derive_seed(seed, k)
        h = random_graph(n, 0.5, child)
        host, _ = build_gh(h)
        full = hadwiger_oracle(host)
        if full != n:
            raise AssertionError(
                f"subdivision host lost its K_{n} minor (got {full})"
            )
        bip, _ = gh_max_bipartite_hadwiger(h)
        elapsed = int((time.monotonic() - started) * 1000)
        rows.append(LowerBoundTrial(k, child, len(h.edges), full, bip, elapsed))
    return LowerBoundExperiment(n, tuple(rows))


def min_order_per_side(t: int, s: int) -> int:
    """Order forced on a host containing a bipartite TK_t with s branch
    vertices on one side: t branches plus subdivision vertices for every
    same-side pair."""
    if t < 1 or not 0 <= s <= t:
        raise ValueError("need t >= 1 and 0 <= s <= t")
    return t + comb(s, 2) + comb(t - s, 2)


@dataclass(frozen=True)
class MinOrderBound:
    t: int
    per_side: tuple[int, ...]

    @property
    def min_order(self) -> int:
        return min(self.per_side)

    @property
    def argmin_side(self) -> int:
        return self.per_side.index(self.min_order)


def bipartite_tk_min_order(t: int) -> MinOrderBound:
    """Smallest order of any graph containing a bipartite TK_t."""
    if t < 1:
        raise ValueError("t must be positive")
    return MinOrderBound(t, tuple(min_order_per_side(t, s) for s in range(t + 1)))


@dataclass(frozen=True)
class TopologicalLowerBound:
    t: int
    host_order: int
    tcl_value: int
    min_order: int
    oracle_checked: bool
    no_bipartite_tk: bool | None

    @property
    def separation(self) -> int:
        return self.min_order - self.host_order


def topological_lb_construction(t: int) -> TopologicalLowerBound:
    """Complete host on ceil(t^2/4) vertices: its topological clique
    number is its order, yet it is too small to contain a bipartite TK_t.

    The tcl of a complete graph equals its order (series reduction of any
    further subdivision gives it back); the oracle confirms this for
    hosts small enough to search.  For t <= 5 the absence of a bipartite
    TK_t is verified exhaustively over all bipartitions; as all vertices
    of the host are twins, only the side sizes 0..order//2 need a search.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    order = -(-t * t // 4)
    host = Graph.complete(order)
    checked = False
    if order <= 9:
        if tcl_oracle(host) != order:
            raise AssertionError("complete host lost its spanning subdivision")
        checked = True
    verdict: bool | None = None
    if t <= 5:
        verdict = True
        adj = host.adjacency_masks
        for ones in _bipartitions(adj):
            if has_tk(order, _crossing_masks(adj, ones), t):
                verdict = False
                break
    bound = bipartite_tk_min_order(t)
    return TopologicalLowerBound(
        t, order, order, bound.min_order, checked, verdict
    )


__all__ = [
    "keyed_value",
    "keyed_uniform",
    "derive_seed",
    "random_graph",
    "random_coloring",
    "build_gh",
    "gh_model",
    "BoundEvaluation",
    "bce_probability_bound",
    "bce_probability_bound_hp",
    "gh_max_bipartite_hadwiger",
    "LowerBoundTrial",
    "LowerBoundExperiment",
    "theorem_lb_experiment",
    "min_order_per_side",
    "MinOrderBound",
    "bipartite_tk_min_order",
    "TopologicalLowerBound",
    "topological_lb_construction",
]
