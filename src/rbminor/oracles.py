"""Exact small-instance oracles: Hadwiger number, topological clique
number, and maximum Hadwiger numbers over bipartite subgraphs.

All searches run on a series-reduced core (degree-0/1 vertices deleted,
degree-2 vertices suppressed), which never changes the largest clique
minor once it has at least four vertices.  The smaller cases, the base
value (0 with no vertex, 1 with no edge, 3 with a cycle, else 2), come
from the same reduction: the graph has a cycle iff some suppression
would make a parallel edge or the core is nonempty.  Deleting a vertex
of degree <= 1, and suppressing a degree-2 vertex into a new edge, both
keep the cycle rank |E| - |V| + #components, which is 0 on no vertices,
so a reduction to an empty core that takes neither other step started
from a forest; a parallel edge needs a triangle, and a core has minimum
degree 3, so either one shows a cycle.  Size guards raise
InstanceTooLarge instead of silently running forever.  A `Graph` input is
reduced on neighbour sets built from its edges, in time and memory linear
in its size, and its core is checked against the cap before the core's
adjacency masks are built.

The bipartition scans walk the 2^(n-1) bipartitions with vertex 0 pinned
to side 0 in increasing order of their side-1 vertex mask, and return the
best value with the first bipartition that attains it.  A bipartition
stays a mask from enumeration to kernel: its graph is a list of
adjacency masks built from that mask, series-reduced and base-valued by
the same steps on integers, and only the winner becomes a `Bipartition`.
Three exact reductions shorten the walk without changing that answer:

- Twin classes.  u and v are twins when N(u) - {v} = N(v) - {u}.  This
  is an equivalence whose classes are cliques or independent sets, and
  swapping two twins is an automorphism, so a bipartition's value
  depends only on how many vertices of each class lie on side 1; swapping
  the two sides changes nothing either.  A mask whose per-class counts,
  or their mirror (class size - count), an earlier mask already had is
  skipped: its value equals that earlier mask's, so it is never the first
  to attain a value.  When every class is a single vertex no two masks
  share their counts (vertex 0's count tells a mask from any mirror), so
  the walk yields every mask without keeping counts.
- Threshold.  With b the best value so far, a later bipartition matters
  only if its graph has a K_{b+1} minor.  One with fewer than
  C(b+1, 2) edges (half its masks' popcount) is skipped, and once b is
  at least 3 the others are searched for t > b only.  Every Hadwiger
  search asks only for t up to the order bound of its core on n vertices
  and e edges, which holds for any t pairwise-joined disjoint vertex
  sets, connected or not:
  - C(t, 2) <= e: each pair of sets needs an edge of its own;
  - 2t <= n + omega(G[V_t]), V_t the vertices of degree >= t - 1: a
    singleton set {v} needs an edge to each of the other t - 1 sets, so v
    lies in V_t; singletons are pairwise adjacent, so at most
    omega(G[V_t]) of them, and every other set takes two vertices.  V_t
    shrinks as t grows, so the t that pass are all t up to one value, at
    most floor((n + omega) / 2).  On the 3-regular Petersen graph V_6 is
    empty, so the bound is 5, not 6.
- Ceiling.  A scan knows up front a ceiling on every value it can find:
  n for the kept-subgraph scans (`_rb_kept`) of G(h) and of the
  pipeline's auxiliary graph, whose graphs have n vertices, and
  min(h(g), n // 2 + 1) for `max_bipartite_hadwiger`, whose crossing
  graphs are bipartite subgraphs of g (omega <= 2 in the order bound).
  That ceiling is one search of g's core from min(order bound,
  n // 2 + 1) down, K_t minors being downward closed in t.  No search of
  the scan asks for a t above the ceiling, and the scan stops once its
  value reaches it.

`max_rb_bipartite_oracle` has no such reduction; it counts every
partition, in the same increasing mask order, in a table built by
doubling.  The masks whose highest vertex is v follow those of the
vertices below v, each the count of its mask without v plus the change
that moving v to side 1 makes; that list of changes is built by doubling
too, once per vertex below v.
"""

from __future__ import annotations

from collections import deque
from math import comb, isqrt
from typing import Callable, Iterator, Sequence

from .errors import InstanceTooLarge
from .graphs import Bipartition, ColoredGraph, Graph
from .kernels import find_kt_model, has_tk
from .rb import RBBipartition

HADWIGER_CORE_CAP = 10
TCL_CAP = 9
BIP_HADWIGER_CAP = 10
RB_PARTITION_CAP = 16


def _check_core(core_n: int, core_cap: int) -> None:
    if core_n > core_cap:
        raise InstanceTooLarge(
            f"series-reduced core has {core_n} vertices (cap {core_cap})"
        )


def _series_reduce(g: Graph, core_cap: int) -> tuple[list[int], int]:
    """Delete degree <= 1 vertices and suppress degree-2 vertices, to a
    fixed point, then compact.  Returns the core's adjacency masks, after
    checking its size against core_cap (the masks of a core on c vertices
    take about c^2 / 8 bytes, so a large one is refused before they
    exist), and g's base value, read off the steps taken (see the module
    docstring).  Works on neighbour sets, in time and memory linear in the
    input.  With no vertex of degree <= 2 nothing is removed and the core
    is g itself, so its size is checked before any neighbour set exists."""
    n = g.vertex_count
    degree = [0] * n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    queue = deque(v for v in range(n) if degree[v] <= 2)
    if not queue:
        _check_core(n, core_cap)
    nbr: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    alive = [True] * n
    cycle = False
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
                cycle = True
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
    _check_core(len(keep), core_cap)
    relabel = {v: i for i, v in enumerate(keep)}
    masks = [0] * len(keep)
    for v in keep:
        for u in nbr[v]:
            masks[relabel[v]] |= 1 << relabel[u]
    return masks, 3 if cycle or keep else 2 if g.edges else min(n, 1)


def _mask_series_reduce(masks: Sequence[int], core_cap: int) -> tuple[list[int], int]:
    """_series_reduce of the graph whose vertex v has neighbour mask
    masks[v]: the same steps in the same order, so the same core and base
    value, on integers; for the small graphs of the bipartition scans."""
    n = len(masks)
    nbr = list(masks)
    alive = (1 << n) - 1
    cycle = False
    queue = deque(v for v in range(n) if nbr[v].bit_count() <= 2)
    while queue:
        v = queue.popleft()
        bit = 1 << v
        mv = nbr[v]
        if not alive & bit or mv.bit_count() > 2:
            continue
        alive ^= bit
        if mv & (mv - 1):  # degree 2
            u, w = (mv & -mv).bit_length() - 1, mv.bit_length() - 1
            nbr[u] ^= bit
            nbr[w] ^= bit
            if not nbr[u] >> w & 1:
                nbr[u] |= 1 << w
                nbr[w] |= 1 << u
            else:  # parallel edge would arise; both endpoints lose one
                cycle = True
                if nbr[u].bit_count() <= 2:
                    queue.append(u)
                if nbr[w].bit_count() <= 2:
                    queue.append(w)
        elif mv:
            u = mv.bit_length() - 1
            nbr[u] ^= bit
            if nbr[u].bit_count() <= 2:
                queue.append(u)
    _check_core(alive.bit_count(), core_cap)
    base = 3 if cycle or alive else 2 if any(masks) else min(n, 1)
    if alive == (1 << n) - 1:
        return nbr, base
    keep = [v for v in range(n) if alive >> v & 1]
    core = []
    for v in keep:
        mv, mask = nbr[v], 0
        for i, u in enumerate(keep):
            if mv >> u & 1:
                mask |= 1 << i
        core.append(mask)
    return core, base


def _clique_number(masks: Sequence[int], within: int | None = None) -> int:
    """Order of a largest clique of the graph whose vertex v has neighbour
    mask masks[v], or of its subgraph induced on the vertex mask `within`,
    by branch and bound over candidate masks."""
    return _grow_clique(masks, 0, (1 << len(masks)) - 1 if within is None else within, 0)


def _grow_clique(masks: Sequence[int], size: int, cand: int, best: int) -> int:
    """The larger of best and the largest clique that extends a clique of
    `size` vertices by vertices of cand, branching on the highest vertex
    first.  A module-level recursion, not a closure: a recursive closure
    refers to itself and leaves a reference cycle per call."""
    best = max(best, size)
    while cand and size + cand.bit_count() > best:
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        best = _grow_clique(masks, size + 1, cand & masks[v], best)
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


def _core_hadwiger(core: list[int], floor: int, top: int) -> int:
    """Largest t <= top with t > max(floor, 3) and a K_t minor in the
    series-reduced core with these adjacency masks, or floor if none.  The
    search runs down from min(top, order bound), so it never asks for a t
    above top."""
    for t in range(min(top, _order_bound(core)), max(floor, 3), -1):
        if find_kt_model(len(core), core, t) is not None:
            return t
    return floor


def hadwiger_oracle(g: Graph) -> int:
    """Largest t such that g has a K_t minor, by exhaustive model search.

    HADWIGER_CORE_CAP applies to the series-reduced core, not the input, so
    long subdivisions of small graphs stay cheap.
    """
    core, base = _series_reduce(g, HADWIGER_CORE_CAP)
    return _core_hadwiger(core, base, len(core))


def tcl_oracle(g: Graph) -> int:
    """Largest t such that g contains a subdivision of K_t."""
    n = g.vertex_count
    if n > TCL_CAP:
        raise InstanceTooLarge(f"{n} vertices (cap {TCL_CAP})")
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


def _sides(n: int, ones: int) -> dict[int, int]:
    """Side of each of the n vertices, 1 for those in the vertex mask ones."""
    return {v: (ones >> v) & 1 for v in range(n)}


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


def _bipartitions(masks: Sequence[int]) -> Iterator[int]:
    """Side-1 vertex masks of the bipartitions of the graph with these
    adjacency masks, vertex 0 on side 0, in increasing order, skipping each
    one that a twin permutation or a side swap maps to an earlier one (see
    the module docstring)."""
    n = len(masks)
    classes = _twin_classes(masks)
    if len(classes) == n:  # twin-free: no two masks share their counts
        yield from range(0, 1 << n, 2)
        return
    sizes = [members.bit_count() for members in classes]
    seen: set[tuple[int, ...]] = set()
    for ones in range(0, 1 << n, 2):
        counts = tuple((ones & members).bit_count() for members in classes)
        if counts in seen:
            continue
        seen.add(counts)
        seen.add(tuple(size - c for size, c in zip(sizes, counts)))
        yield ones


def _crossing_masks(adj: Sequence[int], ones: int) -> list[int]:
    """Adjacency masks of the edges of adj that cross the bipartition with
    side-1 vertex mask ones."""
    zeros = ~ones
    return [mask & zeros if ones >> v & 1 else mask & ones for v, mask in enumerate(adj)]


def _rb_kept(red: Sequence[int]) -> Callable[[int], list[int]]:
    """The kept-mask rule of the complete two-coloured graph whose Red
    pairs have adjacency masks red: kept(ones) is the adjacency masks of
    the RB-bipartite subgraph of the bipartition with side-1 vertex mask
    ones, the Red pairs that cross it and the Blue pairs inside a side.  A
    twin permutation of the Red graph or a side swap maps the subgraphs of
    two bipartitions to each other, as `_max_hadwiger_scan` requires."""
    n = len(red)
    full = (1 << n) - 1
    blue = [full & ~mask & ~(1 << v) for v, mask in enumerate(red)]

    def kept(ones: int) -> list[int]:
        zeros = full ^ ones
        return [
            red[v] & zeros | blue[v] & ones if ones >> v & 1
            else red[v] & ones | blue[v] & zeros
            for v in range(n)
        ]

    return kept


def _max_hadwiger_scan(
    masks: Sequence[int], subgraph: Callable[[int], list[int]], ceiling: int
) -> tuple[int, Bipartition]:
    """Best Hadwiger number of the graph with adjacency masks subgraph(ones),
    over the bipartitions (side-1 vertex masks ones) of the graph with
    adjacency masks masks, with the first bipartition attaining it.  ceiling
    is an upper bound on every such graph's Hadwiger number: no search asks
    for a t above it, and the scan stops once the value reaches it.
    subgraph must give isomorphic graphs for two bipartitions that a twin
    permutation or a side swap maps to each other."""
    best = -1
    best_ones = 0
    for ones in _bipartitions(masks):
        sub = subgraph(ones)
        if sum(map(int.bit_count, sub)) < 2 * comb(best + 1, 2):
            continue  # too few edges for a K_{best+1} minor
        core, base = _mask_series_reduce(sub, HADWIGER_CORE_CAP)
        value = _core_hadwiger(core, max(best, base), ceiling)
        if value > best:
            best = value
            best_ones = ones
            if best == ceiling:
                break
    return best, Bipartition(_sides(len(masks), best_ones))


def max_bipartite_hadwiger(g: Graph) -> tuple[int, Bipartition]:
    """Maximum Hadwiger number over all bipartite subgraphs of g.

    Every bipartite subgraph sits inside the crossing subgraph of some
    bipartition, so scanning all 2^(n-1) bipartitions is exhaustive.
    Returns the best value with the first bipartition attaining it.
    """
    n = g.vertex_count
    if n > BIP_HADWIGER_CAP:
        raise InstanceTooLarge(f"{n} vertices (cap {BIP_HADWIGER_CAP})")
    adj = g.adjacency_masks
    # min(h(g), top), clamped where the base value 3 of K_3 exceeds top = 2
    top = n // 2 + 1
    ceiling = min(_core_hadwiger(*_mask_series_reduce(adj, HADWIGER_CORE_CAP), top), top)
    return _max_hadwiger_scan(adj, lambda ones: _crossing_masks(adj, ones), ceiling)


def max_rb_bipartite_oracle(cg: ColoredGraph) -> tuple[int, RBBipartition]:
    """Most edges kept by any partition (Red kept crossing, Blue within),
    with the first partition in mask order that keeps them.

    Counts all 2^(n-1) partitions with vertex 0 pinned; used as the
    reference point for the one-half extraction guarantee.
    """
    n = cg.graph.vertex_count
    if n > RB_PARTITION_CAP:
        raise InstanceTooLarge(f"{n} vertices (cap {RB_PARTITION_CAP})")
    if n == 0:
        return 0, RBBipartition({})  # no vertex 0 to pin
    adj = cg.graph.adjacency_masks
    # kept count per mask m of vertices 1..n-1 on side 1 (bit i for vertex
    # i + 1), by doubling: all on side 0 keeps the Blue edges, and the
    # masks whose highest vertex is v follow those of vertices 1..v-1
    table = [cg.graph.edge_count - cg.red_count]
    for v, red in enumerate(cg.red_masks[1:], 1):
        # moving v to side 1 toggles rb.keeps on v's edges and on no other,
        # so it adds deg(v) - 2 kept_at_v, v having kept its Blue edges to
        # side 0 and its Red ones to side 1: deg(v) - 2 blue_deg(v) with
        # all of 1..v-1 on side 0, and w more for each u of them on side 1
        blue = adj[v] & ~red
        delta = [adj[v].bit_count() - 2 * blue.bit_count()]
        for u in range(1, v):
            w = 2 * ((blue >> u & 1) - (red >> u & 1))
            delta += [d + w for d in delta] if w else delta
        table += [t + d for t, d in zip(table, delta)]
    best = max(table)
    return best, RBBipartition(_sides(n, table.index(best) << 1))


__all__ = [
    "HADWIGER_CORE_CAP",
    "TCL_CAP",
    "BIP_HADWIGER_CAP",
    "RB_PARTITION_CAP",
    "hadwiger_oracle",
    "tcl_oracle",
    "max_bipartite_hadwiger",
    "max_rb_bipartite_oracle",
]
