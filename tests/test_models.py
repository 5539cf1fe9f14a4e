"""Minor models, minimisation, the auxiliary graph, and lift/projection.

The lift equivalence (bipartite lift <-> RB-bipartite auxiliary subgraph)
is the load-bearing fact here; the acceptance suite runs it at volume, this
file pins the mechanics on hand-built and small random instances.
"""

import random
from collections import deque
from itertools import combinations, permutations

import pytest

from rbminor.constructions import derive_seed, keyed_uniform, random_graph
from rbminor.errors import NotAModel, NotInLift
from rbminor.graphs import (
    Bipartition,
    ColoredGraph,
    Graph,
    OddCycle,
    is_bipartite,
)
from rbminor.kernels import find_kt_model
from rbminor.models import (
    AuxiliaryGraph,
    MinorModel,
    build_auxiliary,
    lift_odd_circuit,
    lift_subgraph,
    minimize_model,
    project_odd_cycle,
)
from rbminor.rb import RBBipartition, rb_certify


def cycle_model():
    host = Graph.cycle(6)
    return MinorModel.create(host, [(0, 1), (2, 3), (4, 5)])


def test_create_and_validate():
    m = cycle_model()
    m.validate()
    assert m.order == 3
    assert m.roots == (0, 2, 4)
    assert m.part_of() == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}


def test_structural_rejections():
    host = Graph.cycle(6)
    with pytest.raises(ValueError):
        MinorModel.create(host, [])
    with pytest.raises(ValueError):
        MinorModel.create(host, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        MinorModel.create(host, [(0, 6)])  # out of range
    with pytest.raises(ValueError):
        MinorModel.create(host, [(0,)], roots=[1])  # root outside part


def test_validate_connectivity_and_adjacency():
    host = Graph.from_edges(5, [(0, 1), (2, 3)])
    broken = MinorModel.create(host, [(0, 2)])  # 0 and 2 not joined
    with pytest.raises(NotAModel):
        broken.validate()
    apart = MinorModel.create(host, [(0, 1), (2, 3)])
    with pytest.raises(NotAModel):
        apart.validate()  # no cross edge between the parts


def test_minimize_drops_and_relabels():
    # host on 7 vertices, vertex 6 unused; fat part with a redundant edge
    host = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
    )
    model = MinorModel.create(host, [(0, 1, 2), (3, 4, 5)])
    model.validate()
    new_host, new_model = minimize_model(host, model)
    new_model.validate()
    assert new_host.vertex_count == 6  # vertex 6 dropped
    for part in new_model.parts:
        inside = [
            e for e in new_host.edges if e[0] in part and e[1] in part
        ]
        assert len(inside) == len(part) - 1  # spanning tree
    crossing = [
        e
        for e in new_host.edges
        if new_model.part_of()[e[0]] != new_model.part_of()[e[1]]
    ]
    assert len(crossing) == 1


def test_minimize_rejects_foreign_host():
    m = cycle_model()
    with pytest.raises(ValueError):
        minimize_model(Graph.cycle(7), m)


def canonical_path(model, i, j):
    """Unique root-to-root path inside parts i and j of a minimised model,
    by a BFS over their union with sorted adjacency: the reference for
    AuxiliaryGraph.path."""
    inside = set(model.parts[i]) | set(model.parts[j])
    start, goal = model.roots[i], model.roots[j]
    prev = {start: start}
    queue = deque([start])
    while queue and goal not in prev:
        x = queue.popleft()
        for y in sorted(model.host.adjacency[x]):
            if y in inside and y not in prev:
                prev[y] = x
                queue.append(y)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def test_canonical_path_endpoints():
    _, m = minimize_model(cycle_model().host, cycle_model())
    p = build_auxiliary(m).path(0, 1)
    assert p == canonical_path(m, 0, 1) == (0, 1, 2)
    assert p[0] == m.roots[0] and p[-1] == m.roots[1]
    assert p == tuple(sorted(set(p), key=p.index))  # simple path


def test_auxiliary_colors_odd_red():
    # C6 split into three dominoes: all root-to-root paths have length 2
    _, m = minimize_model(cycle_model().host, cycle_model())
    aux = build_auxiliary(m)
    assert aux.order == 3
    assert aux.colored.red == frozenset()
    # singleton parts on K3: every path is a single edge, hence Red
    k3 = Graph.complete(3)
    sing = MinorModel.create(k3, [(0,), (1,), (2,)])
    aux3 = build_auxiliary(sing)
    assert aux3.colored.red == k3.edges


def test_aux_path_orientation():
    _, m = minimize_model(cycle_model().host, cycle_model())
    aux = build_auxiliary(m)
    assert aux.path(0, 1) == tuple(reversed(aux.path(1, 0)))


def test_lift_subgraph_shapes():
    k3 = Graph.complete(3)
    m = MinorModel.create(k3, [(0,), (1,), (2,)])
    aux = build_auxiliary(m)
    full = lift_subgraph(m, aux, [(0, 1), (0, 2), (1, 2)])
    assert full.edges == k3.edges
    none = lift_subgraph(m, aux, [])
    assert none.edge_count == 0
    with pytest.raises(ValueError):
        lift_subgraph(m, aux, [(0, 3)])


def test_lift_odd_circuit_triangle():
    k3 = Graph.complete(3)
    m = MinorModel.create(k3, [(0,), (1,), (2,)])
    aux = build_auxiliary(m)  # all Red
    walk = lift_odd_circuit(m, aux, (0, 1, 2, 0))
    assert walk[0] == walk[-1]
    assert (len(walk) - 1) % 2 == 1
    with pytest.raises(ValueError):
        lift_odd_circuit(m, aux, (0, 1, 0))  # too short
    with pytest.raises(ValueError):
        lift_odd_circuit(m, aux, (0, 1, 2))  # not closed


def test_project_odd_cycle_triangle():
    k3 = Graph.complete(3)
    m = MinorModel.create(k3, [(0,), (1,), (2,)])
    aux = build_auxiliary(m)
    circ = project_odd_cycle(m, aux, (0, 1, 2))
    assert circ[0] == circ[-1] and len(circ) == 4
    with pytest.raises(NotInLift):
        project_odd_cycle(m, aux, (0, 1, 2), sub=[(0, 1), (1, 2)])


def test_project_rejects_bad_cycles():
    k3 = Graph.complete(3)
    m = MinorModel.create(k3, [(0,), (1,), (2,)])
    aux = build_auxiliary(m)
    with pytest.raises(ValueError):
        project_odd_cycle(m, aux, (0, 1, 2, 0))  # repeats a vertex
    with pytest.raises(ValueError):
        project_odd_cycle(m, aux, (0, 1))  # even length


def random_tree_model(seed):
    """A minimised model with shuffled labels: parts of 1..7 vertices that
    are paths, stars or random trees, each with a random root, and one
    random cross edge per part pair."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 7) for _ in range(rng.randint(2, 7))]
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    parts, roots, edges = [], [], []
    for size in sizes:
        part, labels = labels[:size], labels[size:]
        shape = rng.choice(("path", "star", "random"))
        for a in range(1, size):
            b = {"path": a - 1, "star": 0, "random": rng.randrange(a)}[shape]
            edges.append((part[a], part[b]))
        parts.append(part)
        roots.append(rng.choice(part))
    for p, q in combinations(parts, 2):
        edges.append((rng.choice(p), rng.choice(q)))
    return MinorModel.create(Graph.from_edges(sum(sizes), edges), parts, roots)


def test_depth_colouring_and_paths_match_the_bfs_paths():
    reds = blues = 0
    for seed in range(300):
        model = random_tree_model(seed)
        aux = build_auxiliary(model)
        for i, j in combinations(range(model.order), 2):
            path = canonical_path(model, i, j)
            assert aux.path(i, j) == path, (seed, i, j)
            assert aux.path(j, i) == canonical_path(model, j, i) == path[::-1]
            red = aux.colored.is_red(i, j)
            assert red == ((len(path) - 1) % 2 == 1), (seed, i, j)
            reds += red
            blues += not red
    assert min(reds, blues) > 1000, (reds, blues)


def random_small_model(seed):
    """Model with parts of <= 3 vertices in a host on <= 8 vertices."""
    for attempt in range(50):
        child = derive_seed(seed, attempt)
        n = 5 + child % 4  # 5..8
        g = random_graph(n, 0.55, child)
        k = 2 + child % 2  # 2 or 3 parts
        masks = find_kt_model(n, list(g.adjacency_masks), k)
        if masks is None:
            continue
        parts = [
            tuple(v for v in range(n) if (p >> v) & 1) for p in masks
        ]
        if any(len(p) > 3 for p in parts):
            continue
        return minimize_model(g, MinorModel.create(g, parts))
    raise AssertionError(f"no model found for seed {seed}")


def test_lift_equivalence_sampled():
    agreements = 0
    for seed in range(40):
        host, model = random_small_model(seed)
        model.validate()
        aux = build_auxiliary(model)
        k = aux.order
        all_pairs = list(combinations(range(k), 2))
        pick = derive_seed(seed, 999)
        sub = [
            e for i, e in enumerate(all_pairs) if keyed_uniform(pick, i) < 0.6
        ]
        lifted = lift_subgraph(model, aux, sub)
        keep = frozenset(tuple(sorted(e)) for e in sub)
        aux_sub = ColoredGraph(Graph(k, keep), aux.colored.red & keep)
        lift_verdict = is_bipartite(lifted)
        aux_verdict = rb_certify(aux_sub)
        assert isinstance(lift_verdict, Bipartition) == isinstance(
            aux_verdict, RBBipartition
        ), (seed, sub)
        if isinstance(lift_verdict, OddCycle):
            circ = project_odd_cycle(model, aux, lift_verdict.vertices, sub)
            reds = sum(
                1
                for a, b in zip(circ, circ[1:])
                if aux.colored.is_red(a, b)
            )
            assert reds % 2 == 1
            walk = lift_odd_circuit(model, aux, aux_verdict.walk)
            assert (len(walk) - 1) % 2 == 1
        agreements += 1
    assert agreements == 40


# --- the minimisation rule against a per-pair scan --------------------------


def _scan_pair(host, a, b):
    """Host edges between vertex sets a and b (inside a when a is b), sorted."""
    return sorted(
        (u, v) for u, v in host.edges if (u in a and v in b) or (u in b and v in a)
    )


def _scan_validate(model):
    for i, part in enumerate(model.parts):
        if not model.host.is_connected_subset(part):
            raise NotAModel(f"part {i} is not connected in the host")
    sets = [set(p) for p in model.parts]
    for i, j in combinations(range(len(sets)), 2):
        if not _scan_pair(model.host, sets[i], sets[j]):
            raise NotAModel(f"parts {i} and {j} share no edge")


def _scan_check_minimized(model):
    sets = [set(p) for p in model.parts]
    if set().union(*sets) != set(range(model.host.vertex_count)):
        raise NotAModel("minimised model must cover every host vertex")
    _scan_validate(model)
    trees = all(len(_scan_pair(model.host, s, s)) == len(s) - 1 for s in sets)
    single = all(
        len(_scan_pair(model.host, sets[i], sets[j])) == 1
        for i, j in combinations(range(len(sets)), 2)
    )
    if not (trees and single):
        raise NotAModel(
            "minimised model needs a tree per part and one cross edge per pair"
        )


def _scan_lift_edges(model, parts, pairs):
    edges = []
    for i in parts:
        s = set(model.parts[i])
        edges.extend(e for e in model.host.edges if e[0] in s and e[1] in s)
    for i, j in pairs:
        found = _scan_pair(model.host, set(model.parts[i]), set(model.parts[j]))
        if len(found) != 1:
            raise NotAModel(f"parts {i}, {j} need exactly one cross edge")
        edges.append(found[0])
    return edges


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except NotAModel as exc:
        return NotAModel, str(exc)


def _seeded_models(count):
    """Random hosts with random disjoint parts that leave vertices uncovered
    (connected or not), plus the minimised forms of the valid ones."""
    for seed in range(count):
        n = 5 + seed % 10
        host = random_graph(n, (0.3, 0.5, 0.8)[seed % 3], derive_seed(8100, seed))
        owner = [
            int(keyed_uniform(derive_seed(8200, seed), v) * (2 + seed % 5)) - 1
            for v in range(n)
        ]  # -1 leaves the vertex outside every part
        parts = [[v for v in range(n) if owner[v] == i] for i in range(max(owner) + 1)]
        parts = [p for p in parts if p]
        if not parts:
            continue
        model = MinorModel.create(host, parts)
        yield model
        try:
            model.validate()
        except NotAModel:
            continue
        yield minimize_model(host, model)[1]


def _check_minimized(model):
    build_auxiliary(model)


def test_pair_table_matches_a_per_pair_scan():
    from rbminor.models import _lift_edges, _part_trees

    seen = {"valid": 0, "minimised": 0, "uncovered": 0}
    for model in _seeded_models(300):
        k = model.order
        sets = [set(p) for p in model.parts]
        valid = _outcome(model.validate)
        assert valid == _outcome(_scan_validate, model)
        if valid[0] != "ok":  # minimising checks the model on its own
            assert _outcome(minimize_model, model.host, model) == valid
        else:  # each pair keeps its lex-smallest edge, part-i end first
            cross = _part_trees(model)[2]
            assert list(cross) == list(combinations(range(k), 2))
            for (i, j), (x, y) in cross.items():
                assert x in sets[i] and y in sets[j]
                assert (min(x, y), max(x, y)) == _scan_pair(model.host, sets[i], sets[j])[0]
        minimised = _outcome(_check_minimized, model)
        assert minimised == _outcome(_scan_check_minimized, model)
        if minimised[0] == "ok":
            aux = build_auxiliary(model)
            all_pairs = list(combinations(range(k), 2))
            for parts, pairs in (
                (range(k), all_pairs),
                (range(k - 1, -1, -1), all_pairs[::2]),
                ([0], []),
            ):
                assert sorted(_lift_edges(model, aux, parts, pairs)) == sorted(
                    _scan_lift_edges(model, parts, pairs)
                )
        seen["valid"] += valid[0] == "ok"
        seen["minimised"] += minimised[0] == "ok"
        seen["uncovered"] += set().union(*sets) != set(range(model.host.vertex_count))
    assert min(seen.values()) >= 30, seen


def test_host_label_auxiliary_matches_the_minimised_copy():
    """The pipeline reads the auxiliary graph of its input model in host
    labels; it must be build_auxiliary of the minimised copy, relabelled."""
    from rbminor.models import _auxiliary, _lift_edges

    checked = 0
    models = [*_seeded_models(300), *map(random_tree_model, range(100))]
    for model in models:
        if _outcome(model.validate)[0] != "ok":
            continue
        aux = _auxiliary(model)
        _, small_model = minimize_model(model.host, model)
        small = build_auxiliary(small_model)
        old = sorted(v for part in model.parts for v in part)  # new label -> old
        assert aux.colored == small.colored
        assert aux.cross == {
            pair: (old[x], old[y]) for pair, (x, y) in small.cross.items()
        }
        for i, j in permutations(range(model.order), 2):
            assert aux.path(i, j) == tuple(old[v] for v in small.path(i, j))
        k = model.order
        pairs = list(combinations(range(k), 2))
        assert sorted(_lift_edges(model, aux, range(k), pairs)) == sorted(
            (old[u], old[v]) for u, v in _lift_edges(small_model, small, range(k), pairs)
        )
        checked += 1
    assert checked >= 200, checked


def test_path_vertex_count_and_depths_survive_the_minimised_copy():
    """path_vertex_count sizes every canonical path from the depths; the
    minimised copy keeps the colouring, the sizes and the depths."""
    from rbminor.models import _auxiliary

    checked = uncovered = 0
    models = [*_seeded_models(300), *map(random_tree_model, range(100))]
    for model in models:
        if _outcome(model.validate)[0] != "ok":
            continue
        aux = _auxiliary(model)
        k = model.order
        listed = sum(len(aux.path(i, j)) for i, j in combinations(range(k), 2))
        assert aux.path_vertex_count() == listed
        small_model, small = aux.minimized(model)
        fresh = build_auxiliary(small_model)  # a second read, on the copy
        assert small.colored == aux.colored == fresh.colored
        assert small.path_vertex_count() == listed
        old = sorted(v for part in model.parts for v in part)  # new label -> old
        for i, j in combinations(range(k), 2):
            assert tuple(old[v] for v in small.path(i, j)) == aux.path(i, j)
        assert small.depth == tuple(aux.depth[v] for v in old)
        assert small.depth == fresh.depth
        assert all(aux.depth[v] == -1 for v in set(range(len(aux.depth))) - set(old))
        checked += 1
        uncovered += len(old) < model.host.vertex_count
    assert checked >= 200 and uncovered >= 30, (checked, uncovered)
