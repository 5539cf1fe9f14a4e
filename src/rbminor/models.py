"""Minor models, minimisation, and the two-coloured auxiliary graph.

A model assigns disjoint connected host parts, pairwise joined by at least
one edge.  The minimisation rule keeps each part's BFS tree from its root
(neighbours in increasing order) and each pair's lex-smallest cross edge;
it has one home, `_part_trees`, which reads any valid model in host
labels.  In the kept subgraph the root-to-root path between two parts is
unique ("canonical"): it climbs from the pair's cross edge x-y to root i
in part i's tree and to root j in part j's.  The auxiliary graph records,
for every pair, the parity of that path: Red for odd length, Blue for even,
read off the tree depths of x and y.  `_auxiliary` is the one reader of the
part trees into an `AuxiliaryGraph`, in host labels, which the pipeline
uses as is; `AuxiliaryGraph.minimized` relabels it into the minimised copy
and the copy's auxiliary graph, for `minimize_model` and the `aux` and
`lift` commands (`aux` first sizes its paths with `path_vertex_count`).
Paths are built only when read.  Odd cycles in any partial lift
correspond to red-odd circuits in the auxiliary graph and vice versa; both
directions are implemented below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import NotAModel, NotInLift
from .graphs import ColoredGraph, Graph, edge_key


@dataclass(frozen=True)
class MinorModel:
    """Disjoint sorted parts of a host graph, one root per part."""

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

    def validate(self) -> None:
        """Connectivity and pairwise adjacency; raises NotAModel."""
        _part_trees(self)


def _part_trees(
    model: MinorModel,
) -> tuple[list[int], list[int], dict[tuple[int, int], tuple[int, int]]]:
    """The minimisation rule of any model, in host labels, checked on the way.

    One pass over host.edges keeps the edges inside each part and the
    lex-smallest edge between each pair of parts.  Returns (parent, depth,
    cross): parent and depth give each part's BFS tree from its root,
    neighbours taken in increasing order (a vertex outside every part is
    its own parent, at depth -1), and cross maps each (i, j) with i < j,
    in increasing order, to the pair's kept edge, its part-i end first.
    Raises NotAModel for the first part its tree does not span, else for
    the first pair with no edge.
    """
    n = model.host.vertex_count
    where = [-1] * n
    for i, part in enumerate(model.parts):
        for v in part:
            where[v] = i
    inside: dict[int, list[int]] = {}
    least: dict[tuple[int, int], tuple[int, int]] = {}
    for e in model.host.edges:
        u, v = e
        i, j = where[u], where[v]
        if i < 0 or j < 0:
            continue
        if i == j:
            inside.setdefault(u, []).append(v)
            inside.setdefault(v, []).append(u)
            continue
        pair = (i, j) if i < j else (j, i)
        kept = least.get(pair)
        if kept is None or e < kept:
            least[pair] = e
    parent = list(range(n))
    depth = [-1] * n
    for i, root in enumerate(model.roots):
        depth[root] = 0
        reached = [root]
        for x in reached:
            for y in sorted(inside.get(x, ())):
                if depth[y] < 0:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    reached.append(y)
        if len(reached) != len(model.parts[i]):
            raise NotAModel(f"part {i} is not connected in the host")
    cross: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in combinations(range(model.order), 2):
        e = least.get((i, j))
        if e is None:
            raise NotAModel(f"parts {i} and {j} share no edge")
        cross[(i, j)] = e if where[e[0]] == i else (e[1], e[0])
    return parent, depth, cross


def minimize_model(host: Graph, model: MinorModel) -> tuple[Graph, MinorModel]:
    """Prune to part spanning trees and one cross edge per pair (see
    `AuxiliaryGraph.minimized`)."""
    if model.host != host:
        raise ValueError("model was built over a different host")
    small, _ = _auxiliary(model).minimized(model)
    return small.host, small


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Complete two-coloured graph on part indices, plus the part trees.

    Edge (i, j) is Red exactly when the canonical path between roots i and
    j has odd length.  parent and depth give each host vertex's parent and
    depth in its part's tree (a root is its own parent at depth 0, a vertex
    in no part its own parent at depth -1), and cross maps (i, j) with
    i < j to the pair's cross edge, its part-i end first; path(i, j) climbs
    from both ends of that edge to the roots, so paths are built only when
    read.
    """

    colored: ColoredGraph
    parent: tuple[int, ...]
    depth: tuple[int, ...]
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

    def path_vertex_count(self) -> int:
        """The vertices all canonical paths list, without building one: the
        path of the pair with cross edge x-y lists depth(x) + depth(y) + 2."""
        depth = self.depth
        return sum(depth[x] + depth[y] + 2 for x, y in self.cross.values())

    def minimized(self, model: MinorModel) -> tuple[MinorModel, AuxiliaryGraph]:
        """The minimised copy of `model` (whose auxiliary graph this is) and
        the copy's auxiliary graph.  Vertices outside every part are dropped
        and the survivors relabelled densely in increasing old-label order;
        the copy's host is the relabelled trees and cross edges, and roots
        carry over.  The relabel is monotone, so it keeps the BFS trees and
        lex-smallest cross edges of `_part_trees`, hence the depths and the
        colouring: `colored` is shared, parent, depth and cross relabelled."""
        survivors = sorted(v for part in model.parts for v in part)
        new = {old: i for i, old in enumerate(survivors)}
        parent = tuple(new[self.parent[v]] for v in survivors)
        depth = tuple(self.depth[v] for v in survivors)
        cross = {pair: (new[x], new[y]) for pair, (x, y) in self.cross.items()}
        edges = [(p, v) for v, p in enumerate(parent) if p != v]
        edges.extend(cross.values())
        small = MinorModel.create(
            Graph.from_edges(len(survivors), edges),
            [tuple(new[v] for v in part) for part in model.parts],
            [new[r] for r in model.roots],
        )
        return small, AuxiliaryGraph(self.colored, parent, depth, cross)

    @property
    def order(self) -> int:
        return self.colored.graph.vertex_count


def _auxiliary(model: MinorModel) -> AuxiliaryGraph:
    """The auxiliary graph of any valid model, in host labels.  Pair (i, j)
    with cross edge x-y is Red iff depth(x) + depth(y) is even: the
    canonical path has length depth(x) + 1 + depth(y)."""
    parent, depth, cross = _part_trees(model)
    red = frozenset(
        pair for pair, (x, y) in cross.items() if (depth[x] + depth[y]) % 2 == 0
    )
    colored = ColoredGraph(Graph(model.order, frozenset(cross)), red)
    return AuxiliaryGraph(colored, tuple(parent), tuple(depth), cross)


def build_auxiliary(model: MinorModel) -> AuxiliaryGraph:
    """Colour every part pair by the parity of its canonical path.

    The model must be minimised, else NotAModel: the parts cover the host,
    the model is valid, and the host has n - k + C(k, 2) edges.  A valid
    model that covers the host has at least that many, |P| - 1 inside each
    connected part P and one across each joined pair, and exactly that
    many when each part induces a tree and each pair has one cross edge."""
    n, k = model.host.vertex_count, model.order
    if sum(map(len, model.parts)) != n:  # parts are disjoint and in range
        raise NotAModel("minimised model must cover every host vertex")
    aux = _auxiliary(model)
    if model.host.edge_count != n - k + k * (k - 1) // 2:
        raise NotAModel(
            "minimised model needs a tree per part and one cross edge per pair"
        )
    return aux


def _lift_edges(
    model: MinorModel,
    aux: AuxiliaryGraph,
    parts: Iterable[int],
    pairs: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    """The lift rule: the tree of each listed part plus the cross edge of
    each listed part pair, in host labels."""
    parent = aux.parent
    edges = [
        edge_key(parent[v], v) for i in parts for v in model.parts[i] if parent[v] != v
    ]
    cross = aux.cross
    for i, j in pairs:
        x, y = e = cross[(i, j) if i < j else (j, i)]
        edges.append(e if x < y else (y, x))  # a normalised edge is listed as is
    return edges


def lift_subgraph(
    model: MinorModel, aux: AuxiliaryGraph, sub: Iterable[tuple[int, int]]
) -> Graph:
    """Host subgraph: all part trees plus the cross edge of each pair in sub."""
    if aux.order != model.order or len(aux.parent) != model.host.vertex_count:
        raise ValueError("auxiliary graph does not match the model")
    pairs = set()
    for i, j in sub:
        a, b = min(i, j), max(i, j)
        if not 0 <= a < b < model.order:
            raise ValueError(f"bad part pair ({i}, {j})")
        pairs.add((a, b))
    return Graph.from_edges(
        model.host.vertex_count, _lift_edges(model, aux, range(model.order), pairs)
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
