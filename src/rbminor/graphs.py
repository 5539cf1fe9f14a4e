"""Plain and two-edge-coloured simple graphs with value semantics.

Vertices are the ints 0..vertex_count-1: `sorted_edges` and the `rb`
loops index lists by them, so a graph on other numbers fails there with
TypeError.  Edges are normalised pairs (u, v) with u < v.  Graphs are
immutable; every operation that "changes" a graph returns a new one.

`Graph.from_edges` fills the `sorted_edges` cache when the normalised
pairs arrive strictly increasing, as every file that `io.format_*` writes
lists them, so readers of such a graph (`rb_certify`, the JSON writers)
pay no sort.

`_nogc` pauses the cyclic garbage collector around the per-edge builders
(the parsers, the RB certificate and extractor, the JSON writers): each
makes one container per edge, and the collector would otherwise walk all
of them again every few hundred allocations.  It may wrap only functions
that leave no reference cycle behind, since cyclic garbage made while the
collector is paused waits for the next collection.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain, islice
from operator import lt
from typing import Callable, Iterable, Iterator, ParamSpec, Sequence, TypeVar

RED = "R"
BLUE = "B"

Edge = tuple[int, int]

_P = ParamSpec("_P")
_R = TypeVar("_R")


def _nogc(func: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run func with the cyclic collector paused, then restore the state
    found; a no-op when the collector is already off (in the pattern of
    Mercurial's util.nogc).  Only for functions that make no cycles."""

    @wraps(func)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def edge_key(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair."""
    return (u, v) if u < v else (v, u)


def _validate_edge(u: int, v: int, n: int) -> None:
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("negative vertex count")
        if [1 for u, v in self.edges if not 0 <= u < v < n]:  # faster than all(genexpr)
            for u, v in self.edges:  # words the first offending edge
                _validate_edge(u, v, n)
                if u > v:
                    raise ValueError(f"edge ({u}, {v}) not normalised")

    @classmethod
    def from_edges(cls, vertex_count: int, pairs: Iterable[Sequence[int]]) -> Graph:
        """Build a graph, normalising pairs and rejecting loops/duplicates.

        A pair given as a normalised tuple is kept as the edge object.
        When the normalised pairs are strictly increasing (which also
        proves them distinct) they are the sorted edge list, and the
        `sorted_edges` cache is filled with them."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        try:
            norm = [p if u < v else (v, u) for p in pairs for u, v in (p,)]
            edges = frozenset(norm)
            if len(edges) == len(pairs):
                g = cls(vertex_count, edges)
                if all(map(lt, norm, islice(norm, 1, None))):
                    g.__dict__["sorted_edges"] = tuple(norm)
                return g
        except (TypeError, ValueError):
            pass
        # one pair at a time, so the first bad pair in input order names the error
        seen: set[Edge] = set()
        for u, v in pairs:
            _validate_edge(u, v, vertex_count)
            e = edge_key(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(vertex_count, frozenset(seen))

    @classmethod
    def complete(cls, n: int) -> Graph:
        return cls(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, frozenset())

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> Graph:
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbr: list = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        for v, s in enumerate(nbr):  # each set is dropped once frozen, so the
            nbr[v] = frozenset(s)  # sets and their copies are never all alive
        return tuple(nbr)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        # one bucket per lesser end, each sorted: the pairs in tuple order,
        # as the graph's own edge objects, with no key per edge and only
        # short sorts
        buckets: list[list[Edge]] = [[] for _ in range(self.vertex_count)]
        for e in self.edges:
            buckets[e[0]].append(e)
        for bucket in buckets:
            bucket.sort()
        return tuple(chain.from_iterable(buckets))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def is_connected_subset(self, vertices: Iterable[int]) -> bool:
        """Whether the induced subgraph on `vertices` is connected."""
        vs = set(vertices)
        if not vs:
            return False
        start = min(vs)
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in self.adjacency[x]:
                if y in vs and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen == vs


@dataclass(frozen=True)
class ColoredGraph:
    """A simple graph plus a total Red/Blue edge colouring."""

    graph: Graph
    red: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.red <= self.graph.edges:
            raise ValueError("red set contains non-edges")

    @classmethod
    def from_edge_colors(
        cls, vertex_count: int, triples: Iterable[Sequence[object]]
    ) -> ColoredGraph:
        pairs = []
        red = set()
        for u, v, color in triples:
            pairs.append((u, v))
            if color == RED:
                red.add(edge_key(int(u), int(v)))  # type: ignore[arg-type]
            elif color != BLUE:
                raise ValueError(f"unknown colour {color!r}")
        g = Graph.from_edges(vertex_count, pairs)
        return cls(g, frozenset(red))

    @classmethod
    def monochromatic(cls, g: Graph, color: str) -> ColoredGraph:
        if color == RED:
            return cls(g, g.edges)
        if color == BLUE:
            return cls(g, frozenset())
        raise ValueError(f"unknown colour {color!r}")

    @property
    def blue(self) -> frozenset[Edge]:
        return self.graph.edges - self.red

    @property
    def red_count(self) -> int:
        return len(self.red)

    def color_of(self, u: int, v: int) -> str:
        e = edge_key(u, v)
        if e not in self.graph.edges:
            raise KeyError(f"no edge {e}")
        return RED if e in self.red else BLUE

    def is_red(self, u: int, v: int) -> bool:
        return self.color_of(u, v) == RED

    @cached_property
    def red_masks(self) -> tuple[int, ...]:
        masks = [0] * self.graph.vertex_count
        for u, v in self.red:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def colored_edges(self) -> Iterator[tuple[int, int, str]]:
        for u, v in self.graph.sorted_edges:
            yield u, v, RED if (u, v) in self.red else BLUE


@dataclass(frozen=True, eq=True)
class Bipartition:
    """Two-sided vertex assignment; side 0 is X/left, side 1 is Y/right."""

    side: dict[int, int]

    def __post_init__(self) -> None:
        for v, s in self.side.items():
            if s not in (0, 1):
                raise ValueError(f"side of {v} must be 0 or 1")

    def __contains__(self, v: int) -> bool:
        return v in self.side

    def crossing(self, u: int, v: int) -> bool:
        return self.side[u] != self.side[v]

    def left(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, s in self.side.items() if s == 0))

    def right(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, s in self.side.items() if s == 1))

    def extended(self, v: int, s: int) -> Bipartition:
        if v in self.side:
            raise ValueError(f"vertex {v} already placed")
        new = dict(self.side)
        new[v] = s
        return type(self)(new)

    def is_valid_for(self, g: Graph) -> bool:
        """All vertices covered and every edge crossing."""
        if set(self.side) != set(range(g.vertex_count)):
            return False
        return all(self.side[u] != self.side[v] for u, v in g.edges)


@dataclass(frozen=True)
class OddCycle:
    """A simple cycle of odd length, implicit closing edge last->first."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3 or len(self.vertices) % 2 == 0:
            raise ValueError("odd cycle needs odd length >= 3")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def is_valid_for(self, g: Graph) -> bool:
        k = len(self.vertices)
        return all(
            g.has_edge(self.vertices[i], self.vertices[(i + 1) % k])
            for i in range(k)
        )


def is_bipartite(g: Graph) -> Bipartition | OddCycle:
    """2-colour by BFS; the failure witness is an odd cycle through a BFS tree.

    Deterministic: components are rooted at their smallest vertex and
    neighbours are scanned in increasing order.
    """
    side: dict[int, int] = {}
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    for root in range(g.vertex_count):
        if root in side:
            continue
        side[root] = 0
        parent[root] = -1
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in sorted(g.adjacency[u]):
                if v not in side:
                    side[v] = 1 - side[u]
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif side[v] == side[u]:
                    return OddCycle(_tree_cycle(u, v, parent, depth))
    return Bipartition(side)


def _tree_cycle(u: int, v: int, parent: dict[int, int], depth: dict[int, int]) -> tuple[int, ...]:
    """Cycle formed by tree paths u->lca, lca->v plus the edge (v, u)."""
    up: list[int] = []
    down: list[int] = []
    a, b = u, v
    while depth[a] > depth[b]:
        up.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        down.append(b)
        b = parent[b]
    while a != b:
        up.append(a)
        down.append(b)
        a = parent[a]
        b = parent[b]
    up.append(a)
    return tuple(up + down[::-1])
