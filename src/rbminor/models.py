"""Minor models, minimisation, and the two-coloured auxiliary graph.

A model assigns disjoint connected host parts, pairwise joined by at least
one edge.  Minimising prunes each part to a spanning tree and each pair to
a single cross edge, after which the root-to-root path between two parts
is unique ("canonical"): it climbs from the pair's cross edge x-y to root i
in part i's tree and to root j in part j's.  The auxiliary graph records,
for every pair, the parity of that path: Red for odd length, Blue for even,
read off the tree depths of x and y.  Paths are built only when read.  Odd
cycles in any partial lift correspond to red-odd circuits in the auxiliary
graph and vice versa; both directions are implemented below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import NotAModel, NotInLift
from .graphs import BLUE, RED, ColoredGraph, Graph, edge_key


@dataclass(frozen=True)
class MinorModel:
    """Disjoint sorted parts of a host graph, one root per part.

    The first check that needs it builds one cross-edge table (_pair_table)
    in a single pass over host.edges: part pair (i, j) with i <= j -> the
    host edges between them, the edges inside part i when i == j.
    validate, cross_edges, the minimised-model check and the lift rule
    all read it.
    """

    host: Graph
    parts: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        if not self.parts:
            raise ValueError("model needs at least one part")
        if len(self.parts) != len(self.roots):
            raise ValueError("one root per part required")
        for part, root in zip(self.parts, self.roots):
            if not part:
                raise ValueError("empty part")
            if list(part) != sorted(set(part)):
                raise ValueError("parts must be sorted and duplicate-free")
            for v in part:
                if not 0 <= v < self.host.vertex_count:
                    raise ValueError(f"part vertex {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} in two parts")
                seen.add(v)
            if root not in part:
                raise ValueError(f"root {root} outside its part")

    @classmethod
    def create(
        cls,
        host: Graph,
        parts: Iterable[Iterable[int]],
        roots: Sequence[int] | None = None,
    ) -> MinorModel:
        norm = tuple(tuple(sorted(set(p))) for p in parts)
        if roots is None:
            roots = tuple(p[0] for p in norm)  # smallest vertex of each part
        return cls(host, norm, tuple(roots))

    @property
    def order(self) -> int:
        return len(self.parts)

    def part_of(self) -> dict[int, int]:
        where: dict[int, int] = {}
        for i, part in enumerate(self.parts):
            for v in part:
                where[v] = i
        return where

    @cached_property
    def _pair_table(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """(i, j) with i <= j -> host edges between parts i and j (inside
        part i when i == j), each list in host.edges order."""
        where = self.part_of()
        table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for e in self.host.edges:
            i = where.get(e[0])
            j = where.get(e[1])
            if i is not None and j is not None:
                table.setdefault((i, j) if i <= j else (j, i), []).append(e)
        return table

    def validate(self) -> None:
        """Connectivity and pairwise adjacency; raises NotAModel."""
        for i, part in enumerate(self.parts):
            if not self.host.is_connected_subset(part):
                raise NotAModel(f"part {i} is not connected in the host")
        table = self._pair_table
        for i in range(self.order):
            for j in range(i + 1, self.order):
                if (i, j) not in table:
                    raise NotAModel(f"parts {i} and {j} share no edge")

    def cross_edges(self, i: int, j: int) -> list[tuple[int, int]]:
        k = self.order
        i, j = sorted((range(k)[i], range(k)[j]))
        return sorted(self._pair_table.get((i, j), ()))


def _minimize_with_map(
    host: Graph, model: MinorModel
) -> tuple[Graph, MinorModel, list[int]]:
    """Minimise in one pass over the parts and one over the pairs, which
    also check the model: each part's BFS spanning tree from its root
    (neighbours in increasing order) must reach the whole part, and each
    pair's lex-smallest cross edge must exist."""
    if model.host != host:
        raise ValueError("model was built over a different host")
    kept: list[tuple[int, int]] = []
    for i, (part, root) in enumerate(zip(model.parts, model.roots)):
        inside = set(part)
        seen = {root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in sorted(host.adjacency[x] & inside):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    kept.append(edge_key(x, y))
        if seen != inside:
            raise NotAModel(f"part {i} is not connected in the host")
    table = model._pair_table
    for i, j in combinations(range(model.order), 2):
        if (i, j) not in table:
            raise NotAModel(f"parts {i} and {j} share no edge")
        kept.append(min(table[(i, j)]))  # lex-smallest survivor
    old_of_new = sorted(v for part in model.parts for v in part)
    relabel = {old: new for new, old in enumerate(old_of_new)}
    new_host = Graph.from_edges(
        len(old_of_new), [(relabel[u], relabel[v]) for u, v in kept]
    )
    new_model = MinorModel.create(
        new_host,
        [tuple(relabel[v] for v in part) for part in model.parts],
        [relabel[r] for r in model.roots],
    )
    return new_host, new_model, old_of_new


def minimize_model(host: Graph, model: MinorModel) -> tuple[Graph, MinorModel]:
    """Prune to part spanning trees and one cross edge per pair.

    Vertices outside every part are dropped and the survivors relabelled
    densely (0..k-1) in increasing old-label order.  The lex-smallest cross
    edge of each pair survives; roots carry over.
    """
    new_host, new_model, _ = _minimize_with_map(host, model)
    return new_host, new_model


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Complete two-coloured graph on part indices, plus the part trees.

    Edge (i, j) is Red exactly when the canonical path between roots i and
    j has odd length.  parent maps each host vertex to its parent in its
    part's tree (a root to itself), and cross maps (i, j) with i < j to the
    pair's cross edge, its part-i end first; path(i, j) climbs from both
    ends of that edge to the roots, so paths are built only when read.
    """

    colored: ColoredGraph
    parent: tuple[int, ...]
    cross: Mapping[tuple[int, int], tuple[int, int]]

    def path(self, i: int, j: int) -> tuple[int, ...]:
        """The canonical path, oriented from root i to root j."""
        if i > j:
            return self.path(j, i)[::-1]
        x, y = self.cross[(i, j)]
        return self._to_root(x)[::-1] + self._to_root(y)

    def _to_root(self, v: int) -> tuple[int, ...]:
        walk = [v]
        while self.parent[v] != v:
            v = self.parent[v]
            walk.append(v)
        return tuple(walk)

    @property
    def order(self) -> int:
        return self.colored.graph.vertex_count


def build_auxiliary(model: MinorModel) -> AuxiliaryGraph:
    """Colour every part pair by the parity of its canonical path.

    The model must be minimised, else NotAModel: the parts cover the host,
    each induces a tree, walked once from its root for parents and depths,
    and each pair has one cross edge x-y, Red iff depth(x) + depth(y) is
    even (the path has length depth(x) + 1 + depth(y))."""
    n = model.host.vertex_count
    if set().union(*model.parts) != set(range(n)):
        raise NotAModel("minimised model must cover every host vertex")
    table = model._pair_table
    parent = list(range(n))
    depth = [-1] * n
    where = model.part_of()
    for i, (part, root) in enumerate(zip(model.parts, model.roots)):
        tree = table.get((i, i), ())
        if len(tree) != len(part) - 1:
            raise NotAModel(f"part {i} does not induce a tree")
        nbr: dict[int, list[int]] = {v: [] for v in part}
        for u, v in tree:
            nbr[u].append(v)
            nbr[v].append(u)
        depth[root] = 0
        reached = [root]
        for x in reached:
            for y in nbr[x]:
                if depth[y] < 0:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    reached.append(y)
        if len(reached) != len(part):
            raise NotAModel(f"part {i} is not connected")
    cross: dict[tuple[int, int], tuple[int, int]] = {}
    triples = []
    for i in range(model.order):
        for j in range(i + 1, model.order):
            edges = table.get((i, j), ())
            if len(edges) != 1:
                raise NotAModel(f"parts {i}, {j} need exactly one cross edge")
            x, y = edges[0]
            cross[(i, j)] = (x, y) if where[x] == i else (y, x)
            triples.append((i, j, BLUE if (depth[x] + depth[y]) % 2 else RED))
    return AuxiliaryGraph(
        ColoredGraph.from_edge_colors(model.order, triples), tuple(parent), cross
    )


def _cross_edge(model: MinorModel, i: int, j: int) -> tuple[int, int]:
    edges = model.cross_edges(i, j)
    if len(edges) != 1:
        raise NotAModel(f"parts {i}, {j} need exactly one cross edge")
    return edges[0]


def _lift_edges(
    model: MinorModel,
    parts: Iterable[int],
    pairs: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    """The lift rule: the tree of each listed part plus the one cross edge
    of each listed part pair, in host labels."""
    table = model._pair_table
    edges = [e for i in parts for e in table.get((i, i), ())]
    edges.extend(_cross_edge(model, i, j) for i, j in pairs)
    return edges


def lift_subgraph(
    model: MinorModel, aux: AuxiliaryGraph, sub: Iterable[tuple[int, int]]
) -> Graph:
    """Host subgraph: all part trees plus the cross edge of each pair in sub."""
    if aux.order != model.order:
        raise ValueError("auxiliary graph does not match the model")
    pairs = set()
    for i, j in sub:
        a, b = min(i, j), max(i, j)
        if not 0 <= a < b < model.order:
            raise ValueError(f"bad part pair ({i}, {j})")
        pairs.add((a, b))
    return Graph.from_edges(
        model.host.vertex_count, _lift_edges(model, range(model.order), pairs)
    )


def lift_odd_circuit(
    model: MinorModel, aux: AuxiliaryGraph, circuit: Sequence[int]
) -> tuple[int, ...]:
    """Concatenate canonical paths along a red-odd circuit of part indices.

    `circuit` is an explicit closed walk (first == last) in the auxiliary
    graph with an odd number of Red traversals.  The output is a closed
    host walk of odd length.
    """
    if len(circuit) < 4 or circuit[0] != circuit[-1]:
        raise ValueError("circuit must be closed with at least 3 edges")
    reds = 0
    for a, b in zip(circuit, circuit[1:]):
        if a == b or not 0 <= a < model.order or not 0 <= b < model.order:
            raise ValueError(f"bad circuit step ({a}, {b})")
        if aux.colored.is_red(a, b):
            reds += 1
    if reds % 2 == 0:
        raise ValueError("circuit has an even number of Red traversals")
    walk: list[int] = [model.roots[circuit[0]]]
    for a, b in zip(circuit, circuit[1:]):
        walk.extend(aux.path(a, b)[1:])
    return tuple(walk)


def project_odd_cycle(
    model: MinorModel,
    aux: AuxiliaryGraph,
    cycle: Sequence[int],
    sub: Iterable[tuple[int, int]] | None = None,
) -> tuple[int, ...]:
    """Collapse an odd host cycle (from a lift) to a red-odd part circuit.

    `cycle` lists distinct host vertices with an implicit closing edge.
    Consecutive same-part runs collapse to single part indices; the result
    is an explicit closed circuit whose Red-traversal count is odd.  When
    `sub` is given, cross edges outside it raise NotInLift.
    """
    if len(cycle) < 3 or len(cycle) % 2 == 0:
        raise ValueError("cycle must have odd length >= 3")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle vertices must be distinct")
    allowed_pairs = None
    if sub is not None:
        allowed_pairs = {(min(i, j), max(i, j)) for i, j in sub}
    where = model.part_of()
    seq: list[int] = []
    k = len(cycle)
    for idx in range(k):
        u, v = cycle[idx], cycle[(idx + 1) % k]
        if not model.host.has_edge(u, v):
            raise NotInLift(f"({u}, {v}) is not a host edge")
        if u not in where or v not in where:
            raise NotInLift("cycle leaves the model's parts")
        pu, pv = where[u], where[v]
        if pu != pv and allowed_pairs is not None:
            if (min(pu, pv), max(pu, pv)) not in allowed_pairs:
                raise NotInLift(
                    f"cross edge between parts {pu} and {pv} is outside sub"
                )
        if not seq or seq[-1] != pu:
            seq.append(pu)
    while len(seq) > 1 and seq[0] == seq[-1]:
        seq.pop()
    if len(seq) < 3:
        raise NotInLift("cycle stays within two parts; no lift contains it")
    circuit = tuple(seq) + (seq[0],)
    reds = sum(
        1 for a, b in zip(circuit, circuit[1:]) if aux.colored.is_red(a, b)
    )
    if reds % 2 == 0:
        raise ValueError("projection yielded an even circuit; cycle not from a lift")
    return circuit
