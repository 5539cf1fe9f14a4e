"""Red/blue parity certificates and the half-edge extractor.

A coloured graph is RB-bipartite when its vertices split into sides (X, Y)
with every Red edge crossing and every Blue edge inside a side;
equivalently, no closed walk traverses an odd number of Red edges.
`rb_certify` decides this in near-linear time and always hands back a
checkable witness for its answer.  It and the extractor make at most one
new object per edge, and their lists and dicts hold only ints and the
graph's own edge pairs, so they leave no reference cycle and run with the
cyclic collector paused (see graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import ceil
from typing import Callable, Sequence

from .graphs import RED, Bipartition, ColoredGraph, Edge, Graph, _nogc


def keeps(color: str, side_u: int, side_v: int) -> bool:
    """The side rule: an edge survives in an RB-bipartite subgraph iff it
    is Red and crosses the sides, or Blue and stays within one."""
    return (color == RED) == (side_u != side_v)


@dataclass(frozen=True, eq=True)
class RBBipartition(Bipartition):
    """Sides (X, Y): valid when Red edges cross and Blue edges stay inside."""

    def is_valid_for(self, cg: ColoredGraph) -> bool:  # type: ignore[override]
        if set(self.side) != set(range(cg.graph.vertex_count)):
            return False
        return self.is_valid_on_edges(cg)

    def is_valid_on_edges(self, cg: ColoredGraph) -> bool:
        """Edge conditions only; the domain may exceed or subset the graph."""
        for u, v, color in cg.colored_edges():
            if u not in self.side or v not in self.side:
                return False
            if not keeps(color, self.side[u], self.side[v]):
                return False
        return True


@dataclass(frozen=True)
class ROddCertificate:
    """Closed walk with an odd number of Red traversals.

    The walk is explicit: walk[0] == walk[-1], consecutive entries are
    edges.  Its existence refutes every candidate (X, Y) split at once.
    """

    walk: tuple[int, ...]
    red_count: int

    def __post_init__(self) -> None:
        if len(self.walk) < 4 or self.walk[0] != self.walk[-1]:
            raise ValueError("walk must be closed with at least 3 edges")
        if self.red_count % 2 == 0:
            raise ValueError("red traversal count must be odd")

    @property
    def length(self) -> int:
        return len(self.walk) - 1

    def is_valid_for(self, cg: ColoredGraph) -> bool:
        reds = 0
        for a, b in zip(self.walk, self.walk[1:]):
            if not cg.graph.has_edge(a, b):
                return False
            if cg.is_red(a, b):
                reds += 1
        return reds == self.red_count and reds % 2 == 1


@_nogc
def rb_certify(cg: ColoredGraph) -> RBBipartition | ROddCertificate:
    """Decide RB-bipartiteness with a witness either way.

    Parity union-find over the edges in sorted order: a Red edge constrains
    its endpoints to opposite sides, a Blue edge to the same side.  Union
    is by rank; the finds of each edge use path halving (each visited
    vertex is relinked to its grandparent, its parity summed over the
    skipped edge), which leaves the same roots and parities as full
    compression.  The first contradictory edge closes an R-odd cycle
    through the union-find forest; otherwise a vertex's side is its parity
    to its root.  Deterministic for a given input.
    """
    n = cg.graph.vertex_count
    red = cg.red
    parent = list(range(n))
    rank = [0] * n
    parity = [0] * n  # parity of the path to parent; 0 at a root
    tree: list[Edge] = []  # union edges, in the order they joined
    for e in cg.graph.sorted_edges:
        u, v = e
        ru, pu = u, 0
        while parent[ru] != ru:
            up = parent[ru]
            p = parity[ru] ^ parity[up]
            parent[ru] = parent[up]
            parity[ru] = p
            pu ^= p
            ru = parent[up]
        rv, pv = v, 0
        while parent[rv] != rv:
            up = parent[rv]
            p = parity[rv] ^ parity[up]
            parent[rv] = parent[up]
            parity[rv] = p
            pv ^= p
            rv = parent[up]
        w = e in red
        if ru == rv:
            if pu ^ pv != w:
                return _odd_walk(cg, tree, u, v)
            continue
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        elif rank[ru] == rank[rv]:
            rank[ru] += 1
        parent[rv] = ru
        parity[rv] = pu ^ pv ^ w
        tree.append(e)
    side = {}
    for v in range(n):
        x, px = v, 0
        while parent[x] != x:
            px ^= parity[x]
            x = parent[x]
        side[v] = px
    return RBBipartition(side)


def _odd_walk(cg: ColoredGraph, tree: list[Edge], u: int, v: int) -> ROddCertificate:
    # The forest is acyclic, so its u-v path is unique: search from both
    # ends, growing the smaller frontier by one level at a time, until the
    # two search trees share a vertex; the walk is that path closed by (v, u).
    forest: list[list[int]] = [[] for _ in range(cg.graph.vertex_count)]
    for a, b in tree:
        forest[a].append(b)
        forest[b].append(a)
    seen = ({u: u}, {v: v})  # each search's tree: vertex -> predecessor
    fronts = [[u], [v]]
    meet = None
    while meet is None:
        s = len(fronts[1]) < len(fronts[0])
        mine, other = seen[s], seen[not s]
        grown = []
        for x in fronts[s]:
            for y in forest[x]:
                if y not in mine:
                    mine[y] = x
                    grown.append(y)
                    if y in other:
                        meet = y
        fronts[s] = grown
    path = [meet]
    while path[-1] != u:
        path.append(seen[0][path[-1]])
    path.reverse()  # u ... meet
    while path[-1] != v:
        path.append(seen[1][path[-1]])
    walk = tuple(path) + (u,)
    reds = sum(1 for a, b in zip(walk, walk[1:]) if cg.is_red(a, b))
    return ROddCertificate(walk, reds)


@_nogc
def rb_extract_half(
    cg: ColoredGraph, order: Sequence[int]
) -> tuple[ColoredGraph, RBBipartition]:
    """Keep >= half the edges as an RB-bipartite subgraph, derandomised.

    Each vertex in `order` goes to the side that resolves the larger
    signed gain (Red crossing counts +1, Blue crossing -1) against the
    vertices already placed; ties go to X.  Every edge is kept on exactly
    one of the two choices for its later endpoint, so the conditional
    expectation never drops: the kept count is >= ceil(e/2) and the signed
    crossing difference d(X,Y) is >= (red - blue)/2.

    `order` may be any duplicate-free vertex sequence; a full permutation
    is the classic statement, a subsequence applies it to the induced
    subgraph.  Each edge is listed once, at the end that `order` places
    later or never places: the other end is still unplaced when that one
    is placed, so it adds nothing to the gain.  The kept subgraph is
    built straight from the kept edge sets, with no sort and no re-parse
    of the edges.
    """
    n = cg.graph.vertex_count
    if len(set(order)) != len(order):
        raise ValueError("order contains duplicates")
    rank = [n] * n  # position in order; n when never placed
    for i, v in enumerate(order):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        rank[v] = i
    red = cg.red
    blue = cg.blue
    # one list per vertex w, of the neighbours placed before w (an edge
    # with both ends unplaced goes to either, and is never read): a Red
    # neighbour v as v, a Blue one as n + v
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in red:
        if rank[u] < rank[v]:
            nbrs[v].append(u)
        else:
            nbrs[u].append(v)
    for u, v in blue:
        if rank[u] < rank[v]:
            nbrs[v].append(n + u)
        else:
            nbrs[u].append(n + v)
    # pos[u] is -1 on side X, +1 on side Y, 0 while unplaced, and
    # pos[n + u] == -pos[u]; placing w in X rather than Y gains sum(pos)
    # over its Red neighbours minus that over its Blue neighbours, which is
    # the sum of pos over nbrs[w]
    pos = [0] * (2 * n)
    at = pos.__getitem__
    side: dict[int, int] = {}
    for w in order:
        if sum(map(at, nbrs[w])) >= 0:
            side[w] = 0
            pos[w] = -1
            pos[n + w] = 1
        else:
            side[w] = 1
            pos[w] = 1
            pos[n + w] = -1
    # the side rule of `keeps`: Red is kept when it crosses, Blue when both
    # ends share a side
    kept_red = [e for e in red if pos[e[0]] * pos[e[1]] < 0]
    kept = [e for e in blue if pos[e[0]] * pos[e[1]] > 0]
    kept += kept_red
    sub = ColoredGraph(Graph(n, frozenset(kept)), frozenset(kept_red))
    return sub, RBBipartition(side)


_SIDE_CODE = {0: 1, 1: 2}


def _products(code: list[int], edges: frozenset[Edge]) -> list[int]:
    """code[u] * code[v] for each edge (u, v), in the set's order."""
    return [code[u] * code[v] for u, v in edges]


@_nogc
def extraction_stats(
    cg: ColoredGraph, sub: ColoredGraph, partition: RBBipartition
) -> dict[str, int]:
    """Kept-edge and signed-crossing tallies for the extractor's contract,
    over the edges with both ends placed."""
    # code 1 on side X, 2 on side Y, 0 unplaced: an edge's product of codes
    # is 0 with an end unplaced, 2 when it crosses, 1 or 4 inside a side
    side = partition.side
    code = list(map(_SIDE_CODE.get, map(side.get, range(cg.graph.vertex_count)), repeat(0)))
    every, reds = _products(code, cg.graph.edges), _products(code, cg.red)
    total = len(every) - every.count(0)
    red = len(reds) - reds.count(0)
    red_crossing = reds.count(2)
    d_value = red_crossing - (every.count(2) - red_crossing)
    return {
        "total_edges": total,
        "red_edges": red,
        "blue_edges": total - red,
        "kept_edges": sub.graph.edge_count,
        "kept_bound": ceil(total / 2),
        "d_value": d_value,
        # contract: 2*d_value >= red - blue, kept_edges >= kept_bound
    }


def rb_add_vertex(
    partition: RBBipartition,
    w: int,
    incident: Sequence[tuple[int, str]],
) -> tuple[int, list[tuple[int, str]]]:
    """Place a fresh vertex on the side keeping more incident edges.

    An edge survives when its colour matches the side relation (Red
    crossing, Blue inside).  Returns the chosen side and the kept edges;
    at least half survive since each edge is keepable on exactly one side.
    """
    if w in partition.side:
        raise ValueError(f"vertex {w} already placed")
    keep_x: list[tuple[int, str]] = []
    keep_y: list[tuple[int, str]] = []
    for u, color in incident:
        if u not in partition.side:
            raise ValueError(f"neighbour {u} not placed")
        keep = keep_x if keeps(color, 0, partition.side[u]) else keep_y
        keep.append((u, color))
    side = 0 if len(keep_x) >= len(keep_y) else 1
    return side, (keep_x if side == 0 else keep_y)


def rb_patch_path(
    x: int,
    y: int,
    side_x: int,
    side_y: int,
    pool: Sequence[int],
    color: Callable[[int, int], str],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First x-to-y path through one, then two, pool vertices that keeps
    every edge under the side rule.

    Walking the path, each edge forces the next side (Red flips, Blue
    keeps); a path is accepted iff its forced side at y is side_y, which
    covers R-odd and R-even targets alike.  Single internals come first,
    then ordered pairs, in increasing pool order.  Returns the path and
    the sides it forces on its internals.

    None means no such path exists: then each pool edge u-v is Red iff u
    and v differ in their colour towards x, so the pool is a complete
    RB-bipartite graph split by that colour.
    """
    order = sorted(pool)
    for u in order:
        su = side_x ^ (color(x, u) == RED)
        if su ^ (color(u, y) == RED) == side_y:
            return (x, u, y), (su,)
    for u in order:
        su = side_x ^ (color(x, u) == RED)
        for v in order:
            if v == u:
                continue
            sv = su ^ (color(u, v) == RED)
            if sv ^ (color(v, y) == RED) == side_y:
                return (x, u, v, y), (su, sv)
    return None
