"""Exact small-instance oracles: Hadwiger number, topological clique
number, and maximum Hadwiger numbers over bipartite subgraphs.

All searches run on a series-reduced core (degree-0/1 vertices deleted,
degree-2 vertices suppressed), which never changes the largest clique
minor once it has at least four vertices; the few smaller cases are read
off the original graph directly.  Size guards raise InstanceTooLarge
instead of silently running forever.
"""

from __future__ import annotations

from collections import deque

from .errors import InstanceTooLarge
from .graphs import RED, Bipartition, ColoredGraph, Graph
from .kernels import find_kt_model, has_tk
from .rb import RBBipartition

HADWIGER_CORE_CAP = 10
TCL_CAP = 9
BIP_HADWIGER_CAP = 10


def _base_value(g: Graph) -> int:
    """Largest clique minor of size <= 3: cycle -> 3, edge -> 2, vertex -> 1."""
    n = g.vertex_count
    if n == 0:
        return 0
    if not g.edges:
        return 1
    comps = 0
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        queue = deque([s])
        seen[s] = True
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    if len(g.edges) > n - comps:  # some component carries a cycle
        return 3
    return 2


def _series_reduce(g: Graph) -> tuple[int, list[int]]:
    """Delete degree <= 1 vertices and suppress degree-2 vertices, to a
    fixed point, then compact.  Returns (core size, adjacency masks)."""
    n = g.vertex_count
    nbr = [set(g.adjacency[v]) for v in range(n)]
    alive = [True] * n
    queue = deque(v for v in range(n) if len(nbr[v]) <= 2)
    while queue:
        v = queue.popleft()
        if not alive[v]:
            continue
        deg = len(nbr[v])
        if deg > 2:
            continue  # stale entry, vertex gained an edge meanwhile
        alive[v] = False
        if deg == 2:
            u, w = sorted(nbr[v])
            nbr[u].discard(v)
            nbr[w].discard(v)
            if w not in nbr[u]:
                nbr[u].add(w)
                nbr[w].add(u)
            else:  # parallel edge would arise; both endpoints lose one
                if len(nbr[u]) <= 2:
                    queue.append(u)
                if len(nbr[w]) <= 2:
                    queue.append(w)
        else:
            for u in nbr[v]:
                nbr[u].discard(v)
                if len(nbr[u]) <= 2:
                    queue.append(u)
            nbr[v].clear()
    keep = [v for v in range(n) if alive[v]]
    relabel = {v: i for i, v in enumerate(keep)}
    masks = [0] * len(keep)
    for v in keep:
        for u in nbr[v]:
            masks[relabel[v]] |= 1 << relabel[u]
    return len(keep), masks


def _clique_minor_ub(core_n: int, core_m: int) -> int:
    """A K_t minor needs at least t(t-1)/2 edges."""
    t = core_n
    while t > 0 and t * (t - 1) // 2 > core_m:
        t -= 1
    return t


def _core_hadwiger(core_n: int, masks: list[int], floor: int) -> int:
    core_m = sum(bin(m).count("1") for m in masks) // 2
    for t in range(min(core_n, _clique_minor_ub(core_n, core_m)), 3, -1):
        if find_kt_model(core_n, masks, t) is not None:
            return t
    return floor


def hadwiger_oracle(g: Graph, core_cap: int = HADWIGER_CORE_CAP) -> int:
    """Largest t such that g has a K_t minor, by exhaustive model search.

    The cap applies to the series-reduced core, not the input, so long
    subdivisions of small graphs stay cheap.
    """
    core_n, masks = _series_reduce(g)
    if core_n > core_cap:
        raise InstanceTooLarge(
            f"series-reduced core has {core_n} vertices (cap {core_cap})"
        )
    base = _base_value(g)
    if core_n == 0:
        return base
    return _core_hadwiger(core_n, masks, base)


def tcl_oracle(g: Graph, cap: int = TCL_CAP) -> int:
    """Largest t such that g contains a subdivision of K_t."""
    n = g.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if n == 0:
        return 0
    masks = g.adjacency_masks
    degs = sorted((g.degree(v) for v in range(n)), reverse=True)
    ub = 0
    for t in range(n, 0, -1):
        # branch vertices keep degree >= t-1 in any subdivision
        if sum(1 for d in degs if d >= t - 1) >= t:
            ub = t
            break
    for t in range(ub, 0, -1):
        if has_tk(n, masks, t):
            return t
    return 0


def _bipartition_sides(n: int, mask: int) -> dict[int, int]:
    # vertex 0 pinned to side 0; bit i of mask moves vertex i+1 across
    side = {0: 0}
    for v in range(1, n):
        side[v] = (mask >> (v - 1)) & 1
    return side


def max_bipartite_hadwiger(
    g: Graph, cap: int = BIP_HADWIGER_CAP
) -> tuple[int, Bipartition]:
    """Maximum Hadwiger number over all bipartite subgraphs of g.

    Every bipartite subgraph sits inside the crossing subgraph of some
    bipartition, so scanning all 2^(n-1) bipartitions is exhaustive.
    Returns the best value with the first bipartition attaining it.
    """
    n = g.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if n == 0:
        return 0, Bipartition({})
    ceiling = hadwiger_oracle(g)
    best = -1
    best_side: dict[int, int] = {}
    for mask in range(1 << (n - 1)):
        side = _bipartition_sides(n, mask)
        crossing = [e for e in g.edges if side[e[0]] != side[e[1]]]
        value = hadwiger_oracle(Graph.from_edges(n, crossing))
        if value > best:
            best = value
            best_side = side
            if best == ceiling:
                break
    return best, Bipartition(best_side)


def max_rb_bipartite_oracle(
    cg: ColoredGraph, cap: int = 16
) -> tuple[int, RBBipartition]:
    """Most edges kept by any partition (Red kept crossing, Blue within).

    Brute force over the 2^(n-1) partitions with vertex 0 pinned; used as
    the reference point for the one-half extraction guarantee.
    """
    n = cg.graph.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if n == 0:
        return 0, RBBipartition({})
    colored = list(cg.colored_edges())
    best = -1
    best_side: dict[int, int] = {}
    for mask in range(1 << (n - 1)):
        side = _bipartition_sides(n, mask)
        kept = 0
        for u, v, color in colored:
            # rb.keeps inlined: a call per edge slows this loop 25%+ at n = 14
            if (color == RED) == (side[u] != side[v]):
                kept += 1
        if kept > best:
            best = kept
            best_side = side
    return best, RBBipartition(best_side)


__all__ = [
    "HADWIGER_CORE_CAP",
    "TCL_CAP",
    "BIP_HADWIGER_CAP",
    "hadwiger_oracle",
    "tcl_oracle",
    "max_bipartite_hadwiger",
    "max_rb_bipartite_oracle",
]
