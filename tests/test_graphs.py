import gc
import random

import pytest

from rbminor import io, rb
from rbminor.errors import InstanceTooLarge
from rbminor.graphs import (
    BLUE,
    RED,
    Bipartition,
    ColoredGraph,
    Graph,
    OddCycle,
    _nogc,
    edge_key,
    is_bipartite,
)
from rbminor.models import MinorModel

from cycle_enum import enumerate_cycles


def test_edge_key_normalises():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


FROM_EDGES_ERRORS = [
    (3, [(0, 0)], "loop at vertex 0"),
    (3, [(0, 3)], "edge (0, 3) out of range for 3 vertices"),
    (3, [(5, 1)], "edge (5, 1) out of range for 3 vertices"),  # unnormalised
    (3, [(0, 1), (0, 1)], "duplicate edge (0, 1)"),
    (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    (3, [(0, 1), (1, 0), (2, 2)], "duplicate edge (0, 1)"),  # first in input order
    (3, [(1, 2), (0, 0), (0, 5)], "loop at vertex 0"),
    (-1, [], "negative vertex count"),
    (-1, [(0, 1)], "edge (0, 1) out of range for -1 vertices"),
    (3, [(0, 1, 2)], "too many values to unpack (expected 2)"),
    (3, [(0,)], "not enough values to unpack (expected 2, got 1)"),
]


def test_from_edges_rejects_bad_input():
    for n, pairs, message in FROM_EDGES_ERRORS:
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(n, pairs)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:  # a one-shot iterator words it alike
            Graph.from_edges(n, iter(pairs))
        assert str(exc.value) == message


def test_graph_constructor_words_the_bad_edge():
    for edges, message in (
        ({(2, 1)}, "edge (2, 1) not normalised"),
        ({(0, 1), (1, 1)}, "loop at vertex 1"),
        ({(0, 3)}, "edge (0, 3) out of range for 3 vertices"),
        ({(-1, 2)}, "edge (-1, 2) out of range for 3 vertices"),
    ):
        with pytest.raises(ValueError) as exc:
            Graph(3, frozenset(edges))
        assert str(exc.value) == message
    for pairs, message in (
        ([None], "cannot unpack non-iterable NoneType object"),
        ([("0", 1)], "'<=' not supported between instances of 'int' and 'str'"),
    ):
        with pytest.raises(TypeError) as exc:
            Graph.from_edges(3, pairs)
        assert str(exc.value) == message


def test_constructors():
    assert Graph.complete(4).edge_count == 6
    assert Graph.empty(5).edge_count == 0
    assert Graph.cycle(5).edge_count == 5
    assert Graph.path(4).edge_count == 3
    with pytest.raises(ValueError):
        Graph.cycle(2)


def test_adjacency_and_masks_agree():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    for v in range(5):
        mask = g.adjacency_masks[v]
        assert {u for u in range(5) if (mask >> u) & 1} == set(g.adjacency[v])
    assert g.degree(1) == 2
    assert g.has_edge(4, 0) and not g.has_edge(0, 2)


def test_is_connected_subset():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert g.is_connected_subset([0, 1, 2])
    assert not g.is_connected_subset([0, 1, 3])
    assert g.is_connected_subset([5])
    assert not g.is_connected_subset([])


def test_colored_graph_basics():
    cg = ColoredGraph.from_edge_colors(3, [(0, 1, "R"), (1, 2, "B")])
    assert cg.color_of(1, 0) == RED
    assert cg.color_of(1, 2) == BLUE
    assert cg.red_count == 1
    assert cg.blue == frozenset({(1, 2)})
    with pytest.raises(KeyError):
        cg.color_of(0, 2)
    for triples, error, message in (
        ([(0, 1, "G")], ValueError, "unknown colour 'G'"),
        # the colour is read in input order, before the loop at vertex 0
        ([(0, 0, "R"), (0, 1, "G")], ValueError, "unknown colour 'G'"),
        ([("0", 1, "R")], TypeError,
         "'<=' not supported between instances of 'int' and 'str'"),
        ([(None, 1, "R")], TypeError, "int() argument must be a string, a"
         " bytes-like object or a real number, not 'NoneType'"),
    ):
        with pytest.raises(error) as exc:
            ColoredGraph.from_edge_colors(3, triples)
        assert str(exc.value) == message
    with pytest.raises(ValueError):
        ColoredGraph(Graph.empty(3), frozenset({(0, 1)}))


def test_monochromatic():
    g = Graph.cycle(4)
    allred = ColoredGraph.monochromatic(g, RED)
    assert allred.red == g.edges


def test_bipartition():
    p = Bipartition({0: 0, 1: 1, 2: 0})
    assert p.left() == (0, 2) and p.right() == (1,)
    assert p.crossing(0, 1) and not p.crossing(0, 2)
    q = p.extended(3, 1)
    assert 3 in q and 3 not in p
    with pytest.raises(ValueError):
        p.extended(0, 1)
    with pytest.raises(ValueError):
        Bipartition({0: 2})
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert p.is_valid_for(g)
    assert not Bipartition({0: 0, 1: 0, 2: 0}).is_valid_for(g)


def test_odd_cycle_type():
    c = OddCycle((0, 1, 2))
    assert len(c) == 3
    assert c.is_valid_for(Graph.cycle(3))
    with pytest.raises(ValueError):
        OddCycle((0, 1))
    with pytest.raises(ValueError):
        OddCycle((0, 1, 2, 3))
    with pytest.raises(ValueError):
        OddCycle((0, 1, 0))


def test_is_bipartite_even_cycle():
    out = is_bipartite(Graph.cycle(6))
    assert isinstance(out, Bipartition)
    assert out.is_valid_for(Graph.cycle(6))


def test_is_bipartite_odd_cycle_witness():
    out = is_bipartite(Graph.cycle(7))
    assert isinstance(out, OddCycle)
    assert out.is_valid_for(Graph.cycle(7))


def test_is_bipartite_handles_components():
    # one bipartite component, one odd component
    g = Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])
    out = is_bipartite(g)
    assert isinstance(out, OddCycle)
    assert set(out.vertices) == {2, 3, 4}


def subdivide_blue_once(cg):
    """Replace each Blue edge by a two-edge path through a fresh vertex.

    Fresh vertices are numbered n, n+1, ... following the sorted order of
    the Blue edges, so the output is reproducible.
    """
    n = cg.graph.vertex_count
    edges = [e for e in cg.graph.sorted_edges if e in cg.red]
    next_id = n
    for u, v in sorted(cg.blue):
        edges.append((u, next_id))
        edges.append((v, next_id))
        next_id += 1
    return Graph.from_edges(next_id, edges)


def test_subdivide_blue_once():
    cg = ColoredGraph.from_edge_colors(3, [(0, 1, "R"), (1, 2, "B"), (0, 2, "B")])
    g = subdivide_blue_once(cg)
    assert g.vertex_count == 5
    # blue edges sorted: (0,2) gets vertex 3, (1,2) gets vertex 4
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 3) and g.has_edge(2, 3)
    assert g.has_edge(1, 4) and g.has_edge(2, 4)
    assert not g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_enumerate_cycles_k4():
    cycles = enumerate_cycles(Graph.complete(4))
    assert len(cycles) == 7  # four triangles, three quadrilaterals
    assert all(c[0] == min(c) for c in cycles)
    assert len(set(cycles)) == 7


def test_enumerate_cycles_cap():
    with pytest.raises(InstanceTooLarge):
        enumerate_cycles(Graph.empty(17))
    with pytest.raises(InstanceTooLarge):
        enumerate_cycles(Graph.empty(10), max_vertices=9)


def sort_cache_cases():
    """(n, pairs, kind) for seeded edge sets given sorted, reversed,
    unnormalised (each pair reversed, in sorted order) and shuffled."""
    rng = random.Random(17)
    for n in (0, 1, 2, 3, 8, 40, 300):
        pairs = sorted({edge_key(*rng.sample(range(n), 2)) for _ in range(2 * n)}) if n > 1 else []
        yield n, pairs, "sorted"
        yield n, pairs[::-1], "reversed"
        yield n, [(v, u) for u, v in pairs], "unnormalised"
        yield n, rng.sample(pairs, len(pairs)), "shuffled"


def test_from_edges_fills_the_sort_cache_only_with_the_sorted_edges():
    for n, pairs, kind in sort_cache_cases():
        g = Graph.from_edges(n, pairs)
        direct = Graph(n, frozenset(edge_key(u, v) for u, v in pairs))
        norm = [edge_key(u, v) for u, v in pairs]
        increasing = all(a < b for a, b in zip(norm, norm[1:]))
        assert ("sorted_edges" in vars(g)) == increasing, (n, kind)
        assert increasing or kind in ("reversed", "shuffled")
        assert g.sorted_edges == tuple(sorted(g.edges)) == direct.sorted_edges
        assert g == direct and hash(g) == hash(direct)
        triples = [(u, v, RED if (u + v) % 3 else BLUE) for u, v in pairs]
        cg = ColoredGraph.from_edge_colors(n, triples)
        assert cg.graph == g and cg.graph.sorted_edges == g.sorted_edges
        # a written file reads back with its cache filled
        read = io.parse_graph(io.format_graph(g))
        assert read == g and "sorted_edges" in vars(read)
        if pairs:  # a file with no edge lines reads as uncoloured
            read = io.parse_graph(io.format_colored(cg))
            assert read == cg and "sorted_edges" in vars(read.graph)


def test_nogc_pauses_and_restores_the_collector():
    seen = []

    @_nogc
    def probe(fail=False):
        seen.append(gc.isenabled())
        if fail:
            raise ValueError("probe")
        return len(seen)

    outer = _nogc(lambda: (gc.isenabled(), probe()))
    was = gc.isenabled()
    try:
        gc.enable()
        assert probe() == 1 and gc.isenabled()
        with pytest.raises(ValueError):
            probe(fail=True)
        assert gc.isenabled()
        assert outer() == (False, 3) and gc.isenabled()  # nested
        gc.disable()
        assert probe() == 4 and not gc.isenabled()
        with pytest.raises(ValueError):
            probe(fail=True)
        assert not gc.isenabled()  # a disabled collector stays disabled
        assert outer() == (False, 6) and not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 6
    assert probe.__name__ == "probe" and probe.__wrapped__ is not None


def _seeded_colored(n, seed):
    rng = random.Random(seed)
    edges = {edge_key(*rng.sample(range(n), 2)) for _ in range(3 * n)}
    triples = [(u, v, rng.choice((RED, BLUE))) for u, v in sorted(edges)]
    return ColoredGraph.from_edge_colors(n, triples)


def paused_calls():
    """(name, thunk) for every function run under _nogc, on seeded input."""
    cg = _seeded_colored(200, 5)
    model_text = io.format_model(MinorModel.create(Graph.cycle(6), [(0, 1), (2, 3), (4, 5)]))
    order = list(range(0, 200, 3)) + list(range(1, 200, 3))
    sub, part = rb.rb_extract_half(cg, order)
    odd = rb.rb_certify(ColoredGraph.monochromatic(Graph.complete(5), RED))
    cycle = is_bipartite(Graph.cycle(7))
    return [
        ("io.parse_graph", lambda: io.parse_graph(io.format_colored(cg))),
        ("io.parse_model", lambda: io.parse_model(model_text)),
        ("io.parse_model_or_graph", lambda: io.parse_model_or_graph(model_text)),
        ("io.graph_json", lambda: io.graph_json(cg.graph)),
        ("io.colored_json", lambda: io.colored_json(cg)),
        ("io.side_json", lambda: io.side_json(part.side)),
        ("io.bipartition_json", lambda: io.bipartition_json(part)),
        ("io.odd_cycle_json", lambda: io.odd_cycle_json(cycle)),
        ("io.dumps", lambda: io.dumps({"subgraph": io.colored_json(sub), "walk": odd.walk})),
        ("rb.rb_certify", lambda: rb.rb_certify(cg)),
        ("rb.rb_certify", lambda: rb.rb_certify(sub)),
        ("rb.rb_extract_half", lambda: rb.rb_extract_half(cg, order)),
        ("rb.extraction_stats", lambda: rb.extraction_stats(cg, sub, part)),
    ]


def test_paused_functions_leave_no_cyclic_garbage():
    # garbage made while the collector is paused waits for the next pass,
    # so every function under _nogc must be cycle-free
    was = gc.isenabled()
    try:
        for name, thunk in paused_calls():
            module, attr = name.split(".")
            assert hasattr(getattr({"io": io, "rb": rb}[module], attr), "__wrapped__"), name
            gc.collect()
            gc.disable()
            thunk()
            assert gc.collect() == 0, name
            gc.enable()
    finally:
        (gc.enable if was else gc.disable)()
