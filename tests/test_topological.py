"""Incremental topological clique builder and its validator."""

from itertools import combinations

import pytest

from rbminor.constructions import derive_seed, random_coloring
from rbminor.errors import HostTooSmall
from rbminor.graphs import BLUE, RED, ColoredGraph, Graph
from rbminor.topological import (
    TopologicalModel,
    budget_cap,
    rb_topological_clique,
    required_host_order,
    swap_colors_at,
    validate_topological_model,
)


def colored_complete(n, color_fn):
    edges = [(a, b, color_fn(a, b)) for a, b in combinations(range(n), 2)]
    return ColoredGraph.from_edge_colors(n, edges)


def test_host_order_and_budget_frozen():
    # 2t + 2 + C(t+1, 2) and 1 + C(t+1, 2), checked by hand
    assert [required_host_order(t) for t in (3, 4, 5)] == [14, 20, 27]
    assert [budget_cap(t) for t in (3, 4, 5)] == [7, 11, 16]


def test_swap_colors_is_an_involution():
    cg = random_coloring(Graph.complete(8), 901)
    once = swap_colors_at(cg, 3)
    assert swap_colors_at(once, 3).red == cg.red
    for a, b in cg.graph.edges:
        flipped = once.color_of(a, b) != cg.color_of(a, b)
        assert flipped == (3 in (a, b))


def test_all_blue_host_needs_no_internals():
    cg = colored_complete(14, lambda a, b: BLUE)
    model = rb_topological_clique(cg, 3)
    assert not model.escape
    assert len(model.used_vertices()) == 3
    assert all(len(p) == 2 for p in model.paths.values())
    assert set(model.side.values()) == {0}
    validate_topological_model(cg, model, 3, cap=budget_cap(3))


def test_all_red_host_patches_same_side_pairs():
    cg = colored_complete(20, lambda a, b: RED)
    model = rb_topological_clique(cg, 4)
    assert not model.escape
    # sides alternate 0,1,0,1; the two same-side pairs each cost one
    # internal vertex, everything else is a direct red crossing
    assert len(model.used_vertices()) == 6
    longer = [p for p in model.paths.values() if len(p) == 3]
    assert len(longer) == 2
    validate_topological_model(cg, model, 4, cap=budget_cap(4))


def test_random_hosts_stay_inside_budget():
    for t, rounds in ((3, 20), (4, 8)):
        n = required_host_order(t)
        for i in range(rounds):
            cg = random_coloring(Graph.complete(n), derive_seed(77 + t, i))
            model = rb_topological_clique(cg, t)
            assert model.order == t
            assert model.host_order == n
            union, used = validate_topological_model(
                cg, model, t, cap=budget_cap(t)
            )
            assert used <= budget_cap(t)
            assert union.graph.vertex_count == n


def test_host_too_small_and_bad_arguments():
    n = required_host_order(3)
    with pytest.raises(HostTooSmall):
        rb_topological_clique(colored_complete(n - 1, lambda a, b: BLUE), 3)
    with pytest.raises(ValueError):
        rb_topological_clique(colored_complete(5, lambda a, b: BLUE), 0)
    incomplete = ColoredGraph(Graph.cycle(14), frozenset())
    with pytest.raises(ValueError):
        rb_topological_clique(incomplete, 3)


def escape_host():
    """Coloring where the third branch vertex cannot patch its missing
    pair: every one- or two-internal route has the wrong Red parity, so
    the free pool itself is forced to be a complete RB-bipartite graph."""
    a_class = set(range(3, 9))

    def color(a, b):
        a, b = min(a, b), max(a, b)
        if (a, b) == (0, 1) or (a, b) == (0, 2):
            return BLUE
        if (a, b) == (1, 2):
            return RED
        if a == 0:
            return BLUE
        if a == 1:
            return RED if b in a_class else BLUE
        if a == 2:
            return BLUE if b in a_class else RED
        same = (a in a_class) == (b in a_class)
        return BLUE if same else RED

    return colored_complete(14, color)


def test_escape_clique_from_unpatchable_pool():
    cg = escape_host()
    model = rb_topological_clique(cg, 3)
    assert model.escape
    assert model.branch == (3, 4, 5)
    assert model.used_vertices() == (3, 4, 5)
    assert all(len(p) == 2 for p in model.paths.values())
    # the anchor (first free vertex) sits on side 0; the pool is all Blue
    assert model.side == {3: 0, 4: 0, 5: 0}
    assert model.paths == {(3, 4): (3, 4), (3, 5): (3, 5), (4, 5): (4, 5)}
    validate_topological_model(cg, model, 3, cap=budget_cap(3))


def test_validator_rejects_tampering():
    cg = random_coloring(Graph.complete(14), 4242)
    model = rb_topological_clique(cg, 3)
    validate_topological_model(cg, model, 3)

    with pytest.raises(ValueError):
        validate_topological_model(cg, model, 4)  # wrong order

    flipped = dict(model.side)
    flipped[model.branch[0]] ^= 1
    bad_side = TopologicalModel(
        model.branch, model.paths, flipped, model.host_order, model.escape
    )
    with pytest.raises(ValueError):
        validate_topological_model(cg, bad_side, 3)

    unplaced = dict(model.side)
    del unplaced[model.branch[1]]
    no_side = TopologicalModel(
        model.branch, model.paths, unplaced, model.host_order, model.escape
    )
    with pytest.raises(ValueError, match="unplaced"):
        validate_topological_model(cg, no_side, 3)

    shrunk = dict(model.paths)
    shrunk.pop(sorted(shrunk)[0])
    bad_pairs = TopologicalModel(
        model.branch, shrunk, model.side, model.host_order, model.escape
    )
    with pytest.raises(ValueError):
        validate_topological_model(cg, bad_pairs, 3)

    a, b = model.branch[0], model.branch[1]
    key = (min(a, b), max(a, b))
    reversed_path = dict(model.paths)
    reversed_path[key] = tuple(reversed(reversed_path[key]))
    bad_ends = TopologicalModel(
        model.branch, reversed_path, model.side, model.host_order, model.escape
    )
    with pytest.raises(ValueError):
        validate_topological_model(cg, bad_ends, 3)


def test_validator_rejects_reused_internal_and_cap():
    cg = colored_complete(6, lambda a, b: BLUE)
    side = {0: 0, 1: 0, 2: 0, 3: 0}
    shared = TopologicalModel(
        (0, 1, 2),
        {(0, 1): (0, 3, 1), (0, 2): (0, 3, 2), (1, 2): (1, 2)},
        side,
        6,
        False,
    )
    with pytest.raises(ValueError, match="reused"):
        validate_topological_model(cg, shared, 3)

    model = rb_topological_clique(colored_complete(14, lambda a, b: BLUE), 3)
    blue = colored_complete(14, lambda a, b: BLUE)
    with pytest.raises(ValueError, match="cap"):
        validate_topological_model(blue, model, 3, cap=2)
