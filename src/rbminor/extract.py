"""From a clique minor to a bipartite clique minor.

`bipartite_minor_pipeline` reads the input model's part trees and cross
edges in host labels, by the minimisation rule of `models` but with no
minimised copy, and colours the complete auxiliary graph on its k parts.
Every RB-bipartite subgraph h of that graph (Red pairs crossing the two
sides, Blue pairs inside one) lifts to a bipartite host subgraph, so a
K_m model of h, its parts connected in h and pairwise joined, lifts to a
bipartite K_m minor of the host.  The pipeline plans one such model on
one h, chosen by k:

- k <= SCAN_CAP: the exact scan.  Each h lies inside the kept subgraph
  `oracles._rb_kept` of some bipartition, so the best m is the largest
  Hadwiger number over those 2^(k-1) subgraphs.
  `oracles._max_hadwiger_scan` finds it, as it does for G(h) in
  `constructions.gh_max_bipartite_hadwiger`, and one `find_kt_model` call
  builds the model on the first subgraph that attains it;
- k <= EXACT_PARTITION_CAP: h is the RB-half h1 = `rb.rb_extract_half`
  of all k vertices, and `find_kt_model` runs from the order bound
  `oracles._order_bound` of h1 down: the largest m <= k with
  C(m, 2) <= e, its edge count, and 2m <= k + omega(h1[V_m]), V_m the
  vertices of degree >= m - 1 (a singleton part needs an edge to each
  other part, singletons are pairwise adjacent, and every other part
  takes two vertices), so no larger model exists;
- above that, h = h1 and the parts are those of
  `greedy_compatible_partition`, each grown connected and joined to
  every earlier part.

The report lifts the tree of every planned part, h's edges inside each
part and the least edge of h between each pair of parts, by the lift
rule of `models`.  Nothing needs repair, so the report's reserve and
budget read 0 and it never comes from a witness; those fields stay for
the payload schema.  The repair toolkit, `build_projector` and
`connect_pair`, stays public but has no caller in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .errors import PoolExhausted
from .graphs import RED, Bipartition, Graph, edge_key, is_bipartite
from .kernels import find_kt_model
from .models import AuxiliaryGraph, MinorModel, _auxiliary, _lift_edges
from .oracles import _max_hadwiger_scan, _order_bound, _rb_kept
from .rb import RBBipartition, rb_add_vertex, rb_extract_half, rb_patch_path

SCAN_CAP = 9
EXACT_PARTITION_CAP = 12


@dataclass(frozen=True)
class CompatiblePartition:
    """Disjoint vertex subsets, pairwise joined by an edge.

    This is a clique minor shorn of the connectivity condition; parts may
    be scattered.
    """

    parts: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.parts)

    def is_valid_for(self, g: Graph) -> bool:
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                return False
            for v in part:
                if v in seen or not 0 <= v < g.vertex_count:
                    return False
                seen.add(v)
        for i in range(len(self.parts)):
            for j in range(i + 1, len(self.parts)):
                if not any(
                    g.has_edge(u, v)
                    for u in self.parts[i]
                    for v in self.parts[j]
                ):
                    return False
        return True


def greedy_compatible_partition(g: Graph) -> CompatiblePartition:
    """Grow connected parts in one pass, each joined to every earlier part.

    A part starts at the free vertex of highest degree (then smallest
    label), taken among those adjacent to every part so far if any.  It
    grows by the free neighbour reaching the most parts it does not yet
    reach, ties to the lower degree, then the smaller label, until it
    reaches them all; a part whose free neighbours run out first is a
    whole free component no later part could use, and is given up.
    Isolated vertices are left out (an edgeless graph gets the part
    (0,)).  No optimality promise; used when the graph is too big for
    the exhaustive search.
    """
    adj = g.adjacency
    deg = [len(a) for a in adj]
    free = {v for v in range(g.vertex_count) if deg[v]}
    if not free:
        return CompatiblePartition(((0,),) if g.vertex_count else ())
    reach: dict[int, set[int]] = {v: set() for v in free}  # parts next to v
    parts: list[tuple[int, ...]] = []
    while free:
        k = len(parts)
        joined = [v for v in free if len(reach[v]) == k]
        seed = min(joined or free, key=lambda v: (-deg[v], v))
        part = [seed]
        free.discard(seed)
        missing = set(range(k)) - reach[seed]
        frontier = adj[seed] & free
        while missing and frontier:
            u = max(frontier, key=lambda w: (len(missing & reach[w]), -deg[w], -w))
            part.append(u)
            free.discard(u)
            missing -= reach[u]
            frontier = (frontier | adj[u]) & free
        if not missing:
            for w in part:
                for u in adj[w] & free:
                    reach[u].add(k)
            parts.append(tuple(sorted(part)))
    return CompatiblePartition(tuple(parts))


def _mask_bits(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def build_projector(
    partition: RBBipartition,
    members: Sequence[int],
    pool: Sequence[int],
    color: Callable[[int, int], str],
) -> tuple[tuple[int, ...], list[tuple[int, int]], RBBipartition]:
    """Give every member a neighbour among freshly placed pool vertices.

    Each pool vertex goes where `rb.rb_add_vertex` puts it, on the side
    that keeps edges to at least half of the still-uncovered members, so
    at most floor(log2 k) + 1 vertices are consumed.  `color(u, v)` is
    the colour of the pair u-v.
    Returns (projector vertices, kept projector-member edges, extended
    partition); raises PoolExhausted when the pool runs out first.
    """
    for u in members:
        if u not in partition.side:
            raise ValueError(f"member {u} is not placed")
    queue = list(pool)
    remaining = sorted(members)
    chain: list[int] = []
    edges: list[tuple[int, int]] = []
    while remaining:
        if not queue:
            raise PoolExhausted(
                f"{len(remaining)} members uncovered and the pool is empty"
            )
        s = queue.pop(0)
        placed, kept = rb_add_vertex(partition, s, [(u, color(s, u)) for u in remaining])
        edges.extend((s, u) for u, _ in kept)
        partition = partition.extended(s, placed)
        chain.append(s)
        covered = {u for u, _ in kept}
        remaining = [u for u in remaining if u not in covered]
    return tuple(chain), edges, partition


@dataclass(frozen=True)
class ConnectorPath:
    """x-to-y path through one or two pool vertices, plus the partition
    extended over the internals."""

    path: tuple[int, ...]
    partition: RBBipartition

    @property
    def internals(self) -> tuple[int, ...]:
        return self.path[1:-1]


@dataclass(frozen=True)
class RBCliqueWitness:
    """The pool itself is a complete RB-bipartite graph: joining failed,
    but the pool forms a bipartite clique minor directly."""

    vertices: tuple[int, ...]
    side: dict[int, int]

    @property
    def order(self) -> int:
        return len(self.vertices)


def connect_pair(
    partition: RBBipartition,
    x: int,
    y: int,
    parity: str,
    pool: Sequence[int],
    color: Callable[[int, int], str],
) -> ConnectorPath | RBCliqueWitness:
    """Join placed x and y through at most two pool vertices.

    The path is the first one `rb.rb_patch_path` accepts under the side
    rule, `color(u, v)` giving the colour of the pair u-v.  When none
    exists that lemma makes the pool a complete RB-bipartite graph,
    returned as a witness split by colour towards x (Red on side 0).

    parity must name the x-to-y Red parity implied by their sides:
    "even" when equal, "odd" when not.
    """
    side = partition.side
    if x == y:
        raise ValueError("endpoints must differ")
    if x not in side or y not in side:
        raise ValueError("both endpoints must be placed")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    want = "even" if side[x] == side[y] else "odd"
    if parity != want:
        raise ValueError(
            f"sides of {x} and {y} force {want!r} Red parity, not {parity!r}"
        )
    order = tuple(sorted(pool))
    for w in order:
        if w in side:
            raise ValueError(f"pool vertex {w} is already placed")

    found = rb_patch_path(x, y, side[x], side[y], order, color)
    if found is None:
        return RBCliqueWitness(
            order, {w: 0 if color(w, x) == RED else 1 for w in order}
        )
    path, forced = found
    new_side = dict(side)
    new_side.update(zip(path[1:-1], forced))
    return ConnectorPath(path, RBBipartition(new_side))


@dataclass(frozen=True)
class PipelineReport:
    """Bipartite clique minor produced by the pipeline, in host labels."""

    m_achieved: int
    parts: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    lift_edges: tuple[tuple[int, int], ...]
    partition_witness: Bipartition
    reserve_size: int
    budget_used: tuple[tuple[str, int], ...]
    from_witness: bool

    def model(self, host: Graph) -> MinorModel:
        return MinorModel.create(host, self.parts, self.roots)

    def budget(self) -> dict[str, int]:
        return dict(self.budget_used)


_Plan = tuple[tuple[int, ...], ...]


def _plan(aux: AuxiliaryGraph) -> tuple[Sequence[int], _Plan]:
    """An RB-bipartite subgraph h of the auxiliary graph, as adjacency
    masks, and the parts of a K_m model of h, by the tier of the module
    docstring."""
    k = aux.order
    if k <= SCAN_CAP:
        red = aux.colored.red_masks
        kept = _rb_kept(red)
        value, split = _max_hadwiger_scan(red, kept, k)
        h = kept(sum(side << v for v, side in split.side.items()))
        return h, tuple(map(_mask_bits, find_kt_model(k, h, value)))
    h1 = rb_extract_half(aux.colored, range(k))[0].graph
    if k > EXACT_PARTITION_CAP:
        return h1.adjacency_masks, greedy_compatible_partition(h1).parts
    h = list(h1.adjacency_masks)
    m = _order_bound(h)
    while (found := find_kt_model(k, h, m)) is None:
        m -= 1
    return h, tuple(map(_mask_bits, found))


def _plan_edges(h: Sequence[int], plan: _Plan) -> list[tuple[int, int]]:
    """The auxiliary edges to lift: h's edges inside each part, then the
    least edge of h between each pair of parts."""
    edges = [(u, v) for part in plan for u, v in combinations(part, 2) if h[u] >> v & 1]
    edges.extend(
        min(edge_key(u, v) for u in p for v in q if h[u] >> v & 1)
        for p, q in combinations(plan, 2)
    )
    return edges


def bipartite_minor_pipeline(
    g: Graph, model: MinorModel, epsilon: float = 0.25
) -> PipelineReport:
    """Convert a clique minor of g into a bipartite one.

    Plans one K_m model on one RB-bipartite subgraph of the whole
    auxiliary graph (see the module docstring) and lifts it.  The report
    is always a valid bipartite minor model in g's own labels.  epsilon
    is range-checked and otherwise unused: it sized a repair reserve that
    the plan no longer needs, so the report's reserve_size is 0.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if model.host != g:
        raise ValueError("model was built over a different host")
    aux = _auxiliary(model)
    h, plan = _plan(aux)
    used = [i for part in plan for i in part]
    lift = sorted(_lift_edges(model, aux, used, _plan_edges(h, plan)))
    witness = is_bipartite(Graph.from_edges(g.vertex_count, lift))
    if not isinstance(witness, Bipartition):  # pragma: no cover
        raise AssertionError("lift lost bipartiteness")
    return PipelineReport(
        m_achieved=len(plan),
        parts=tuple(
            tuple(sorted(v for i in part for v in model.parts[i])) for part in plan
        ),
        roots=tuple(model.roots[part[0]] for part in plan),
        lift_edges=tuple(lift),
        partition_witness=witness,
        reserve_size=0,
        budget_used=(("projector", 0), ("connector", 0)),
        from_witness=False,
    )


def validate_pipeline_report(g: Graph, report: PipelineReport) -> dict[str, bool]:
    """Check a report against its host: disjoint nonempty parts, parts
    connected and all pairs joined by lift edges that are edges of g, and
    a bipartite lift inside g."""
    checks = {}
    seen: set[int] = set()
    ok = True
    for part in report.parts:
        members = set(part)
        if not part or any(not 0 <= v < g.vertex_count for v in part):
            ok = False
        if len(members) != len(part) or seen & members:
            ok = False
        seen |= members
    checks["parts_disjoint_nonempty"] = ok
    lift = Graph(g.vertex_count, frozenset(e for e in report.lift_edges if e in g.edges))
    checks["parts_connected"] = all(
        all(0 <= v < g.vertex_count for v in p) and lift.is_connected_subset(p)
        for p in report.parts
    )
    near = [  # lift neighbours of each part
        set().union(*(lift.adjacency[v] for v in p if 0 <= v < g.vertex_count))
        for p in report.parts
    ]
    checks["pairs_joined"] = all(
        not near[i].isdisjoint(report.parts[j])
        for i in range(report.m_achieved)
        for j in range(i + 1, report.m_achieved)
    )
    side = report.partition_witness.side
    checks["lift_bipartite"] = (
        all(e in g.edges for e in report.lift_edges)
        and set(side) >= {v for e in report.lift_edges for v in e}
        and all(side[u] != side[v] for u, v in report.lift_edges)
    )
    checks["all"] = all(checks.values())
    return checks


__all__ = [
    "SCAN_CAP",
    "EXACT_PARTITION_CAP",
    "CompatiblePartition",
    "greedy_compatible_partition",
    "build_projector",
    "ConnectorPath",
    "RBCliqueWitness",
    "connect_pair",
    "PipelineReport",
    "bipartite_minor_pipeline",
    "validate_pipeline_report",
]
