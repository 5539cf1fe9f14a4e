"""Exact small-instance oracles: Hadwiger number, topological clique
number, and maximum Hadwiger numbers over bipartite subgraphs.

All searches run on a series-reduced core (degree-0/1 vertices deleted,
degree-2 vertices suppressed), which never changes the largest clique
minor once it has at least four vertices; the few smaller cases are read
off the original graph directly.  Size guards raise InstanceTooLarge
instead of silently running forever.

The bipartition scans walk the 2^(n-1) bipartitions with vertex 0 pinned
to side 0 in increasing mask order (bit i moves vertex i+1 to side 1),
and return the best value with the first bipartition that attains it.
Two exact reductions shorten the walk without changing that answer:

- Twin classes.  u and v are twins when N(u) - {v} = N(v) - {u}.  This
  is an equivalence whose classes are cliques or independent sets, and
  swapping two twins is an automorphism, so a bipartition's value
  depends only on how many vertices of each class lie on side 1; swapping
  the two sides changes nothing either.  A mask whose per-class counts,
  or their mirror (class size - count), an earlier mask already had is
  skipped: its value equals that earlier mask's, so it is never the first
  to attain a value.
- Threshold.  With b the best value so far, a later bipartition matters
  only if its graph has a K_{b+1} minor.  One with fewer than
  C(b+1, 2) edges is skipped, and once b is at least 3 the others are
  searched for t > b only.  Every Hadwiger search asks only for t up to
  the order bound of its core on n vertices and e edges, which holds for
  any t pairwise-joined disjoint vertex sets, connected or not:
  - C(t, 2) <= e: each pair of sets needs an edge of its own;
  - 2t <= n + omega(G[V_t]), V_t the vertices of degree >= t - 1: a
    singleton set {v} needs an edge to each of the other t - 1 sets, so v
    lies in V_t; singletons are pairwise adjacent, so at most
    omega(G[V_t]) of them, and every other set takes two vertices.  V_t
    shrinks as t grows, so the t that pass are all t up to one value, at
    most floor((n + omega) / 2).  On the 3-regular Petersen graph V_6 is
    empty, so the bound is 5, not 6.
  The scan of `max_bipartite_hadwiger` stops at min(h(g), n // 2 + 1),
  since its crossing graphs are bipartite (omega <= 2).

`max_rb_bipartite_oracle` has no such reduction; it counts every
partition in Gray-code order, one vertex flip per step.
"""

from __future__ import annotations

from collections import deque
from math import comb, isqrt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InstanceTooLarge
from .graphs import Bipartition, ColoredGraph, Edge, Graph
from .kernels import find_kt_model, has_tk
from .rb import RBBipartition, keeps

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


def _clique_number(masks: Sequence[int], within: int | None = None) -> int:
    """Order of a largest clique of the graph whose vertex v has neighbour
    mask masks[v], or of its subgraph induced on the vertex mask `within`,
    by branch and bound over candidate masks."""
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(size + 1, cand & masks[v])

    grow(0, (1 << len(masks)) - 1 if within is None else within)
    return best


def _order_bound(masks: Sequence[int]) -> int:
    """Largest t <= min(n, e) with 2t <= n + omega(G[V_t]), V_t the vertices
    of degree >= t - 1: an upper bound on the t of a K_t minor, or of t
    pairwise-joined disjoint vertex sets, in the mask graph on n vertices,
    e the edge bound (see the module docstring).  The descent starts at
    min(n, e, floor((n + omega) / 2)) and pays one more clique search only
    for a t whose degree filter drops a vertex."""
    n = len(masks)
    edges = sum(mask.bit_count() for mask in masks) // 2
    t = min(n, (1 + isqrt(1 + 8 * edges)) // 2, (n + _clique_number(masks)) // 2)
    degrees = [mask.bit_count() for mask in masks]
    while True:
        heavy = sum(1 << v for v, d in enumerate(degrees) if d >= t - 1)
        if heavy == (1 << n) - 1 or 2 * t <= n + _clique_number(masks, heavy):
            return t
        t -= 1


def _core_hadwiger(g: Graph, floor: int, core_cap: int = HADWIGER_CORE_CAP) -> int:
    """Largest t > max(floor, 3) with a K_t minor in g, or floor if none."""
    core_n, masks = _series_reduce(g)
    if core_n > core_cap:
        raise InstanceTooLarge(
            f"series-reduced core has {core_n} vertices (cap {core_cap})"
        )
    for t in range(_order_bound(masks), max(floor, 3), -1):
        if find_kt_model(core_n, masks, t) is not None:
            return t
    return floor


def hadwiger_oracle(g: Graph, core_cap: int = HADWIGER_CORE_CAP) -> int:
    """Largest t such that g has a K_t minor, by exhaustive model search.

    The cap applies to the series-reduced core, not the input, so long
    subdivisions of small graphs stay cheap.
    """
    return _core_hadwiger(g, _base_value(g), core_cap)


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


def _twin_classes(masks: Sequence[int]) -> list[int]:
    """Twin classes of the graph with these adjacency masks, each as a
    vertex mask, in order of their smallest vertex."""
    classes: list[int] = []
    for v, mv in enumerate(masks):
        for i, members in enumerate(classes):
            r = (members & -members).bit_length() - 1  # smallest member
            if masks[r] & ~(1 << v) == mv & ~(1 << r):
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _bipartitions(g: Graph) -> Iterator[dict[int, int]]:
    """Sides of the bipartitions of g in increasing mask order, skipping
    each one that a twin permutation or a side swap maps to an earlier one
    (see the module docstring)."""
    n = g.vertex_count
    classes = _twin_classes(g.adjacency_masks)
    sizes = [members.bit_count() for members in classes]
    seen: set[tuple[int, ...]] = set()
    for mask in range(1 << (n - 1)):
        counts = tuple(((mask << 1) & members).bit_count() for members in classes)
        if counts in seen:
            continue
        seen.add(counts)
        seen.add(tuple(size - c for size, c in zip(sizes, counts)))
        yield _bipartition_sides(n, mask)


def _crossing_edges(edges: Iterable[Edge], side: dict[int, int]) -> list[Edge]:
    return [e for e in edges if side[e[0]] != side[e[1]]]


def _max_hadwiger_scan(
    g: Graph,
    subgraph_edges: Callable[[dict[int, int]], list[Edge]],
    ceiling: int | None = None,
) -> tuple[int, Bipartition]:
    """Best Hadwiger number of the graph on g's vertices with edges
    subgraph_edges(side), over the bipartitions of g, with the first
    bipartition attaining it; stops once the value reaches ceiling, an
    upper bound on every such graph's Hadwiger number.  subgraph_edges must
    give isomorphic graphs for two sides that a twin permutation of g or a
    side swap maps to each other."""
    n = g.vertex_count
    best = -1
    best_side: dict[int, int] = {}
    for side in _bipartitions(g):
        edges = subgraph_edges(side)
        if len(edges) < comb(best + 1, 2):
            continue  # too few edges for a K_{best+1} minor
        sub = Graph.from_edges(n, edges)
        value = _core_hadwiger(sub, best) if best >= 3 else hadwiger_oracle(sub)
        if value > best:
            best = value
            best_side = side
            if best == ceiling:
                break
    return best, Bipartition(best_side)


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
    ceiling = min(hadwiger_oracle(g), n // 2 + 1)
    return _max_hadwiger_scan(g, lambda side: _crossing_edges(g.edges, side), ceiling)


def max_rb_bipartite_oracle(
    cg: ColoredGraph, cap: int = 16
) -> tuple[int, RBBipartition]:
    """Most edges kept by any partition (Red kept crossing, Blue within),
    with the first partition in mask order that keeps them.

    Counts all 2^(n-1) partitions with vertex 0 pinned; used as the
    reference point for the one-half extraction guarantee.
    """
    n = cg.graph.vertex_count
    if n > cap:
        raise InstanceTooLarge(f"{n} vertices (cap {cap})")
    if n == 0:
        return 0, RBBipartition({})
    adj = cg.graph.adjacency_masks
    red = cg.red_masks
    kept = sum(keeps(color, 0, 0) for _, _, color in cg.colored_edges())
    table = [kept] * (1 << (n - 1))  # kept count per mask
    ones = 0  # vertices on side 1
    for k in range(1, len(table)):
        # Gray code: step k moves the vertex of k's lowest set bit across,
        # which toggles rb.keeps on each of its edges and on no other
        v = (k & -k).bit_length()
        cross = adj[v] & (~ones if (ones >> v) & 1 else ones)
        blue_v = adj[v] & ~red[v]
        kept_at_v = (red[v] & cross).bit_count() + (blue_v & ~cross).bit_count()
        kept += adj[v].bit_count() - 2 * kept_at_v
        ones ^= 1 << v
        table[ones >> 1] = kept
    best = max(table)
    return best, RBBipartition(_bipartition_sides(n, table.index(best)))


__all__ = [
    "HADWIGER_CORE_CAP",
    "TCL_CAP",
    "BIP_HADWIGER_CAP",
    "hadwiger_oracle",
    "tcl_oracle",
    "max_bipartite_hadwiger",
    "max_rb_bipartite_oracle",
]
