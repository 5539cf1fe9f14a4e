"""Incremental RB-bipartite topological clique in a 2-coloured complete
graph.

Branch vertices arrive one at a time.  A new vertex sits on the side
where more of its edges to existing branch vertices survive (Red kept
crossing, Blue kept within), and each surviving edge becomes a direct
path.  Every missing pair is patched with one or two fresh internal
vertices by `rb.rb_patch_path`, whose side walk handles the R-odd and
R-even targets alike.  If no patch exists the free vertices form a
complete RB-bipartite graph and the first t of them give the clique
outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping

from .errors import HostTooSmall
from .graphs import RED, ColoredGraph, edge_key
from .rb import RBBipartition, keeps, rb_add_vertex, rb_certify, rb_patch_path


def required_host_order(t: int) -> int:
    """Free vertices needed at every step: 2t plus the final footprint."""
    return 2 * t + 2 + comb(t + 1, 2)


def budget_cap(t: int) -> int:
    """The builder never uses more vertices than this."""
    return 1 + comb(t + 1, 2)


@dataclass(frozen=True)
class TopologicalModel:
    """Subdivided clique: branch vertices, one path per pair (endpoints
    included), and a side for every used vertex."""

    branch: tuple[int, ...]
    paths: Mapping[tuple[int, int], tuple[int, ...]]
    side: Mapping[int, int]
    host_order: int
    escape: bool

    @property
    def order(self) -> int:
        return len(self.branch)

    def used_vertices(self) -> tuple[int, ...]:
        used = set(self.branch)
        for path in self.paths.values():
            used.update(path)
        return tuple(sorted(used))


def rb_topological_clique(cg: ColoredGraph, t: int) -> TopologicalModel:
    """Build an RB-bipartite topological K_t in a 2-coloured complete host.

    Raises HostTooSmall below 2t + 2 + C(t+1, 2) vertices; above it the
    construction is total, using at most 1 + C(t+1, 2) vertices.
    """
    if t < 1:
        raise ValueError("t must be positive")
    n = cg.graph.vertex_count
    if len(cg.graph.edges) != comb(n, 2):
        raise ValueError("host must be a complete graph")
    need = required_host_order(t)
    if n < need:
        raise HostTooSmall(f"{n} vertices; need {need} for t={t}")

    branch: list[int] = [0]
    side: dict[int, int] = {0: 0}
    free = set(range(1, n))
    paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def record(a: int, b: int, path: tuple[int, ...]) -> None:
        if a > b:
            a, b = b, a
            path = tuple(reversed(path))
        paths[(a, b)] = path

    for _ in range(1, t):
        w = min(free)
        free.discard(w)
        sw, kept = rb_add_vertex(
            RBBipartition(side), w, [(v, cg.color_of(w, v)) for v in branch]
        )
        side[w] = sw
        direct = {v for v, _ in kept}
        for v in branch:
            if v in direct:
                record(w, v, (w, v))
                continue
            found = rb_patch_path(w, v, sw, side[v], free, cg.color_of)
            if found is None:
                return _escape_clique(cg, t, sorted(free), n)
            path, forced = found
            for u, s in zip(path[1:-1], forced):
                side[u] = s
                free.discard(u)
            record(w, v, path)
        branch.append(w)
    return TopologicalModel(
        tuple(branch), paths, side, n, escape=False
    )


def swap_colors_at(cg: ColoredGraph, w: int) -> ColoredGraph:
    """Involution that flips the colour of every edge incident to w."""
    at_w = frozenset(e for e in cg.graph.edges if w in e)
    return ColoredGraph(cg.graph, cg.red ^ at_w)


def _escape_clique(
    cg: ColoredGraph, t: int, pool: list[int], host_order: int
) -> TopologicalModel:
    """Patching failed, so the free vertices form a complete RB-bipartite
    graph; its first t vertices are a direct clique."""
    if len(pool) < t:
        raise AssertionError("escape fired with too few free vertices")
    chosen = pool[:t]
    anchor = chosen[0]
    side = {anchor: 0}
    for u in chosen[1:]:
        side[u] = 1 if cg.color_of(anchor, u) == RED else 0
    paths = {}
    for i in range(t):
        for j in range(i + 1, t):
            a, b = chosen[i], chosen[j]
            if not keeps(cg.color_of(a, b), side[a], side[b]):
                raise AssertionError("free pool was not RB-bipartite")
            paths[(a, b)] = (a, b)
    return TopologicalModel(tuple(chosen), paths, side, host_order, escape=True)


def validate_topological_model(
    cg: ColoredGraph, model: TopologicalModel, t: int, cap: int | None = None
) -> tuple[ColoredGraph, int]:
    """Check a built clique: one path per pair with matching endpoints,
    internals fresh and pairwise disjoint, every edge present and kept
    (Red crossing, Blue within), and the union certified RB-bipartite.
    Returns the union subgraph and the number of vertices used."""
    if len(model.branch) != t or len(set(model.branch)) != t:
        raise ValueError("branch vertices must be t distinct vertices")
    branch_set = set(model.branch)
    want_keys = {
        edge_key(a, b)
        for i, a in enumerate(model.branch)
        for b in model.branch[i + 1 :]
    }
    if set(model.paths) != want_keys:
        raise ValueError("exactly one path per branch pair required")
    seen_internal: set[int] = set()
    edges = []
    for (a, b), path in model.paths.items():
        if len(path) < 2 or path[0] != a or path[-1] != b:
            raise ValueError(f"path for ({a}, {b}) has wrong endpoints")
        inner = path[1:-1]
        for u in inner:
            if u in branch_set or u in seen_internal:
                raise ValueError(f"vertex {u} reused across paths")
        seen_internal.update(inner)
        for u, v in zip(path, path[1:]):
            if not cg.graph.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not a host edge")
            color = cg.color_of(u, v)
            side_u, side_v = model.side.get(u), model.side.get(v)
            if side_u is None or side_v is None:
                raise ValueError("unplaced path vertex")
            if not keeps(color, side_u, side_v):
                raise ValueError(f"edge ({u}, {v}) breaks the side rule")
            edges.append((u, v, color))
    used = len(branch_set | seen_internal)
    if cap is not None and used > cap:
        raise ValueError(f"{used} vertices used, cap {cap}")
    union = ColoredGraph.from_edge_colors(cg.graph.vertex_count, edges)
    cert = rb_certify(union)
    if not isinstance(cert, RBBipartition):
        raise ValueError("union subgraph is not RB-bipartite")
    return union, used


__all__ = [
    "required_host_order",
    "budget_cap",
    "TopologicalModel",
    "swap_colors_at",
    "rb_topological_clique",
    "validate_topological_model",
]
