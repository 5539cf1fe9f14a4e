"""From a clique minor to a bipartite clique minor.

`bipartite_minor_pipeline` runs one path from plan to report.  It
reads the input model's part trees and cross edges in host labels, by
the minimisation rule of `models` but with no minimised copy, colours
the auxiliary graph, and extracts a large RB-bipartite subgraph h1 of
the active part.  Then, for part counts m from the largest any plan can
reach down:

- plan: pairwise-joined parts of h1, from the exact search
  (`_exact_plan`: `find_kt_model`, then `find_compatible`) while at most
  EXACT_PARTITION_CAP vertices are active, and above the cap from
  `greedy_compatible_partition`, made once per call, whose parts are
  connected in h1 and so are taken whole without repair.  The exact
  search starts at the order bound `oracles._order_bound` of h1, not at
  its n active vertices: the largest m <= n with C(m, 2) <= e, its edge
  count, and 2m <= n + omega(h1[V_m]), V_m the vertices of degree
  >= m - 1 (a singleton part needs an edge to each other part,
  singletons are pairwise adjacent, and every other part takes two
  vertices).  No compatible partition is larger, so every count above it
  would cost a failing exhaustive search;
- repair: reserved auxiliary vertices restore the connectivity of an
  exact plan's scattered parts, projector vertices giving every part
  member a neighbour and connector paths chaining the projectors
  together.  Both read each pair's colour from the auxiliary graph, and
  the repair lists the auxiliary edges it keeps: h1's edges inside a
  part, then its own projector and connector edges.  A reserve that
  runs dry retreats to the next smaller m; a connector search that finds
  the pool to be a complete RB-bipartite graph keeps it as a witness,
  used when it has at least two vertices and no fewer than the planned
  count;
- report: the parts grown by their repair vertices (or the witness
  vertices as singletons) are lifted to host edges by the lift rule of
  `models`, which reads the part trees in host labels.

Everything stays RB-bipartite, so the lifted host subgraph is bipartite
and the result is always a valid model, just possibly smaller than the
connectivity-free optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import ceil
from typing import Callable, Sequence

from .errors import BudgetExhausted, PoolExhausted
from .graphs import RED, Bipartition, Graph, edge_key, is_bipartite
from .kernels import find_compatible, find_kt_model
from .models import MinorModel, _auxiliary, _lift_edges
from .oracles import _order_bound
from .rb import RBBipartition, rb_add_vertex, rb_extract_half, rb_patch_path

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


def _exact_plan(n: int, masks: Sequence[int], m: int) -> _Plan | None:
    """m pairwise-joined disjoint subsets of the mask graph on n vertices,
    or None.  A K_m model is such a partition, and `find_kt_model` finds
    one far faster than `find_compatible` searches all partitions (K_{6,6}
    with m = 7: milliseconds against seconds), so it is asked first."""
    found = find_kt_model(n, masks, m)
    if found is None:
        found = find_compatible(n, masks, m)
    return None if found is None else tuple(_mask_bits(p) for p in found)


def _planner(
    h1: Graph, active_count: int
) -> tuple[int, Callable[[int], _Plan | None]]:
    """Largest part count any plan can have, and the plan source for part
    counts m: `_exact_plan` up to the cap, above it the first m parts of
    one greedy partition, whose parts are all connected in h1."""
    if active_count <= EXACT_PARTITION_CAP:
        masks = list(h1.adjacency_masks[:active_count])
        return _order_bound(masks), partial(_exact_plan, active_count, masks)
    full = greedy_compatible_partition(h1)
    return full.order, lambda m: full.parts[:m]


def _execute_plan(
    plan: _Plan,
    h1: Graph,
    start: RBBipartition,
    reserve: Sequence[int],
    color: Callable[[int, int], str],
) -> tuple[_Plan, list[tuple[int, int]], tuple[tuple[str, int], ...]] | RBCliqueWitness:
    """Repair a plan from the reserve: a projector for every part that is
    not connected in h1, then connector paths chaining each projector.

    Returns (groups, aux_edges, budget): each part grown by its projector
    and connector vertices, the auxiliary edges to lift (h1's edges inside
    a part, the projector edges, the connector paths and one h1 edge per
    part pair), and the spend.  A connector search that finds no path
    returns its pool witness; PoolExhausted propagates from the projectors.
    """
    part_of = {v: k for k, members in enumerate(plan) for v in members}
    aux_edges = [
        (u, v) for u, v in h1.edges if u in part_of and part_of[u] == part_of.get(v)
    ]
    part_state = RBBipartition(dict(start.side))
    pool = list(reserve)
    chains: list[tuple[int, ...]] = []
    for members in plan:
        chain: tuple[int, ...] = ()
        if len(members) > 1 and not h1.is_connected_subset(members):
            chain, kept, part_state = build_projector(part_state, members, pool, color)
            aux_edges.extend(kept)
            del pool[: len(chain)]
        chains.append(chain)
    groups = []
    for members, xs in zip(plan, chains):
        joints: list[int] = []
        for a, b in zip(xs, xs[1:]):
            parity = "even" if part_state.side[a] == part_state.side[b] else "odd"
            res = connect_pair(part_state, a, b, parity, tuple(pool), color)
            if isinstance(res, RBCliqueWitness):
                return res
            for w in res.internals:
                pool.remove(w)
            joints.extend(res.internals)
            aux_edges.extend(zip(res.path, res.path[1:]))
            part_state = res.partition
        groups.append(members + xs + tuple(joints))
    for p, q in combinations(plan, 2):
        aux_edges.append(
            min(edge_key(u, v) for u in p for v in q if h1.has_edge(u, v))
        )
    projector = sum(len(c) for c in chains)
    budget = (
        ("projector", projector),
        ("connector", len(reserve) - len(pool) - projector),
    )
    return tuple(groups), aux_edges, budget


def bipartite_minor_pipeline(
    g: Graph, model: MinorModel, epsilon: float = 0.25
) -> PipelineReport:
    """Convert a clique minor of g into a bipartite one.

    Reads the model's part trees in host labels, reserves the last
    ceil(epsilon * n) auxiliary vertices (at least 2), extracts an
    RB-bipartite half h1 of the active auxiliary clique, and plans
    pairwise-joined parts of h1.  Above EXACT_PARTITION_CAP active
    vertices the plan is one greedy partition into connected parts, kept
    whole with no reserve spend.  Up to the cap the exact search tries
    part counts downward from the order bound of h1, not from its n
    active vertices, since no larger count has a plan, and repairs
    scattered parts with projectors and connectors.  A step that
    exhausts the reserve retreats to the next smaller count; a complete
    RB-bipartite pool witness is kept when it beats the planned count.
    The report is always a valid bipartite minor model in g's own
    labels.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if model.host != g:
        raise ValueError("model was built over a different host")
    aux = _auxiliary(model)
    n = model.order
    reserve_size = max(ceil(epsilon * n), 2)
    if reserve_size >= n:
        raise BudgetExhausted(
            f"reserving {reserve_size} of {n} auxiliary vertices leaves no active part"
        )
    active_count = n - reserve_size
    active = list(range(active_count))
    reserve = list(range(active_count, n))
    # an edge with an end outside `active` is never kept
    h1, start = rb_extract_half(aux.colored, active)

    top, plan_for = _planner(h1.graph, active_count)
    best_witness: RBCliqueWitness | None = None
    outcome = None
    for m in range(top, 0, -1):
        if best_witness is not None and best_witness.order >= max(m, 2):
            break
        plan = plan_for(m)
        if plan is None:
            continue
        try:
            result = _execute_plan(
                plan, h1.graph, start, reserve, aux.colored.color_of
            )
        except PoolExhausted:
            continue
        if not isinstance(result, RBCliqueWitness):
            outcome = result
            break
        if best_witness is None or result.order > best_witness.order:
            best_witness = result

    m_planned = len(outcome[0]) if outcome is not None else 0
    from_witness = (
        best_witness is not None and best_witness.order >= max(m_planned, 2)
    )
    if from_witness:
        verts = best_witness.vertices
        outcome = (
            tuple((v,) for v in verts),
            list(combinations(verts, 2)),
            (("projector", 0), ("connector", 0)),
        )
    elif outcome is None:
        raise BudgetExhausted("no part count survived the reserve budget")
    groups, aux_edges, budget = outcome
    used = [i for grp in groups for i in grp]
    lift = sorted(set(_lift_edges(model, aux, used, aux_edges)))
    witness = is_bipartite(Graph.from_edges(g.vertex_count, lift))
    if not isinstance(witness, Bipartition):  # pragma: no cover
        raise AssertionError("lift lost bipartiteness")
    return PipelineReport(
        m_achieved=len(groups),
        parts=tuple(
            tuple(sorted(v for i in grp for v in model.parts[i])) for grp in groups
        ),
        roots=tuple(model.roots[min(grp)] for grp in groups),
        lift_edges=tuple(lift),
        partition_witness=witness,
        reserve_size=reserve_size,
        budget_used=budget,
        from_witness=from_witness,
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
    checks["pairs_joined"] = all(
        any(lift.has_edge(u, v) for u in report.parts[i] for v in report.parts[j])
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
