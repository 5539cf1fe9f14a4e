"""Exact small-instance parameters, frozen against independent arguments.

Values asserted here were derived by hand-checkable reasoning, not by
running the code under test:
- h(Petersen) = 5: contracting a perfect matching yields K_5; a K_6 minor
  would need two singleton branch sets of degree >= 5 in a 3-regular graph.
- h(K_{4,5}) = 5: a K_6 minor on 9 vertices forces three singleton branch
  sets, two of which would share a side and be non-adjacent.
- h(K_{3,3}) = 4: 9 edges < 10 rules out K_5; contracting one edge gives K_4.
- tcl(K_{3,3}) = 4: branches {a1,a2,b1,b2} route via b3 and a3; a TK_5
  would need internally disjoint paths for three same-side pairs through
  one leftover vertex.
"""

import hashlib
from functools import cache
from itertools import combinations

import pytest

from rbminor import oracles
from rbminor.constructions import (
    derive_seed,
    gh_max_bipartite_hadwiger,
    random_coloring,
    random_graph,
    theorem_lb_experiment,
)
from rbminor.errors import InstanceTooLarge
from rbminor.graphs import BLUE, RED, ColoredGraph, Graph
from rbminor.kernels import find_kt_model
from rbminor.oracles import (
    _twin_classes,
    hadwiger_oracle,
    max_bipartite_hadwiger,
    max_rb_bipartite_oracle,
    tcl_oracle,
)
from rbminor.rb import keeps


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_hadwiger_base_cases():
    assert hadwiger_oracle(Graph.empty(0)) == 0
    for scan in (max_bipartite_hadwiger, gh_max_bipartite_hadwiger):
        value, part = scan(Graph.empty(0))
        assert (value, part.side) == (0, {})
    assert hadwiger_oracle(Graph.empty(3)) == 1
    assert hadwiger_oracle(Graph.from_edges(2, [(0, 1)])) == 2
    assert hadwiger_oracle(Graph.path(6)) == 2
    assert hadwiger_oracle(Graph.cycle(5)) == 3
    assert hadwiger_oracle(Graph.cycle(6)) == 3


def test_hadwiger_complete_graphs():
    for n in range(3, 8):
        assert hadwiger_oracle(Graph.complete(n)) == n


def test_hadwiger_frozen_values():
    assert hadwiger_oracle(petersen()) == 5
    assert hadwiger_oracle(complete_bipartite(3, 3)) == 4
    assert hadwiger_oracle(complete_bipartite(4, 5)) == 5


def test_hadwiger_series_reduction_reaches_big_hosts():
    # K4 with every edge subdivided once: 10 vertices, core is K4
    pairs = []
    nxt = 4
    for a in range(4):
        for b in range(a + 1, 4):
            pairs += [(a, nxt), (b, nxt)]
            nxt += 1
    g = Graph.from_edges(nxt, pairs)
    assert hadwiger_oracle(g) == 4
    # a long cycle reduces to nothing; the input still shows a cycle
    assert hadwiger_oracle(Graph.cycle(30)) == 3


def test_hadwiger_cap_applies_to_the_core(monkeypatch):
    # 4-regular circulant: nothing to reduce, so the core is the graph
    circ = Graph.from_edges(
        12, [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + 2) % 12) for i in range(12)]
    )
    with pytest.raises(InstanceTooLarge):
        hadwiger_oracle(circ)
    monkeypatch.setattr(oracles, "HADWIGER_CORE_CAP", 12)
    assert hadwiger_oracle(circ) >= 4


def test_tcl_frozen_values():
    assert tcl_oracle(complete_bipartite(2, 2)) == 3
    assert tcl_oracle(complete_bipartite(3, 3)) == 4
    for n in range(1, 7):
        assert tcl_oracle(Graph.complete(n)) == n
    assert tcl_oracle(Graph.cycle(5)) == 3
    assert tcl_oracle(Graph.path(4)) == 2
    assert tcl_oracle(Graph.empty(2)) == 1
    assert tcl_oracle(Graph.empty(0)) == 0


def test_tcl_cap(monkeypatch):
    with pytest.raises(InstanceTooLarge):
        tcl_oracle(Graph.empty(10))
    monkeypatch.setattr(oracles, "TCL_CAP", 10)
    assert tcl_oracle(Graph.empty(10)) == 1


def test_tcl_never_exceeds_hadwiger(monkeypatch):
    # subdivisions are minors, so tcl <= h on anything we can afford
    monkeypatch.setattr(oracles, "TCL_CAP", 10)
    for g in [petersen(), complete_bipartite(3, 3), Graph.cycle(7), Graph.complete(5)]:
        assert tcl_oracle(g) <= hadwiger_oracle(g)


def test_max_bipartite_hadwiger_k4():
    value, part = max_bipartite_hadwiger(Graph.complete(4))
    assert value == 3
    # witness really is a bipartition into two pairs
    assert len(part.left()) == 2 and len(part.right()) == 2


def test_max_bipartite_hadwiger_already_bipartite():
    g = complete_bipartite(3, 3)
    value, part = max_bipartite_hadwiger(g)
    assert value == hadwiger_oracle(g) == 4
    crossing = [e for e in g.edges if part.crossing(*e)]
    assert len(crossing) == 9  # the natural split keeps everything


def test_max_bipartite_hadwiger_cap():
    with pytest.raises(InstanceTooLarge):
        max_bipartite_hadwiger(Graph.empty(11))


def test_max_rb_bipartite_oracle():
    all_red_k3 = ColoredGraph.monochromatic(Graph.complete(3), RED)
    kept, part = max_rb_bipartite_oracle(all_red_k3)
    assert kept == 2
    all_blue_k3 = ColoredGraph.monochromatic(Graph.complete(3), BLUE)
    kept, part = max_rb_bipartite_oracle(all_blue_k3)
    assert kept == 3
    assert len(set(part.side.values())) == 1
    with pytest.raises(InstanceTooLarge):
        max_rb_bipartite_oracle(
            ColoredGraph.monochromatic(Graph.empty(17), BLUE)
        )


def octahedron():
    return Graph.from_edges(
        6, [e for e in combinations(range(6), 2) if e not in {(0, 1), (2, 3), (4, 5)}]
    )


def reference_scan(n, value_of):
    """Plain loop over all 2^(n-1) bipartitions (vertex 0 on side 0, bit i
    of the mask moving vertex i+1): best value, first side attaining it."""
    best, best_side = -1, None
    for mask in range(1 << (n - 1)):
        side = {0: 0, **{v: (mask >> (v - 1)) & 1 for v in range(1, n)}}
        value = value_of(side)
        if value > best:
            best, best_side = value, side
    return best, best_side


def reference_bipartite_hadwiger(g):
    n = g.vertex_count
    return reference_scan(n, lambda side: hadwiger_oracle(Graph.from_edges(
        n, [(u, v) for u, v in g.edges if side[u] != side[v]])))


def reference_gh(h):
    n = h.vertex_count
    return reference_scan(n, lambda side: hadwiger_oracle(Graph.from_edges(n, [
        (u, v) for u, v in combinations(range(n), 2)
        if h.has_edge(u, v) == (side[u] != side[v])
    ])))


def reference_rb(cg):
    return reference_scan(cg.graph.vertex_count, lambda side: sum(
        keeps(color, side[u], side[v]) for u, v, color in cg.colored_edges()))


def same_answer(got, want):
    value, part = got
    assert (value, list(part.side.items())) == (want[0], list(want[1].items()))


def test_twin_classes():
    assert _twin_classes(Graph.complete(5).adjacency_masks) == [0b11111]
    assert _twin_classes(complete_bipartite(2, 3).adjacency_masks) == [0b00011, 0b11100]
    assert _twin_classes(Graph.path(3).adjacency_masks) == [0b101, 0b010]
    assert _twin_classes(Graph.empty(3).adjacency_masks) == [0b111]


def test_bipartite_scans_match_the_plain_loop():
    hosts = [Graph.complete(n) for n in range(1, 9)]
    hosts += [complete_bipartite(a, b) for a, b in [(1, 3), (2, 2), (2, 4), (3, 4)]]
    hosts += [octahedron(), Graph.path(5), Graph.cycle(6)]
    hosts += [
        random_graph(n, p, seed)
        for n in range(4, 9)
        for p in (0.4, 0.7)
        for seed in (1, 2)
    ]
    for g in hosts:
        same_answer(max_bipartite_hadwiger(g), reference_bipartite_hadwiger(g))
        cg = random_coloring(g, 9)
        same_answer(max_rb_bipartite_oracle(cg), reference_rb(cg))
    # h with twins: K_{2,3}, the ends of P_3, the octahedron, K_5, empty
    cores = [complete_bipartite(2, 3), Graph.path(3), octahedron(), Graph.complete(5)]
    cores += [Graph.empty(4), random_graph(6, 0.5, 3), random_graph(7, 0.3, 4)]
    for h in cores:
        same_answer(gh_max_bipartite_hadwiger(h), reference_gh(h))


def per_mask_rb(cg):
    """Kept count of every partition, each mask m from m without its lowest
    side-1 vertex v, which toggles rb.keeps on v's edges and on no other (v
    kept its Red edges to side 1 and Blue ones to side 0); best value, first
    side attaining it, as reference_scan gives them."""
    n = cg.graph.vertex_count
    adj, red = cg.graph.adjacency_masks, cg.red_masks
    blue = [mask & ~r for mask, r in zip(adj, red)]
    table = [cg.graph.edge_count - cg.red_count] * (1 << (n - 1))
    for m in range(1, len(table)):
        low = m & -m
        v = low.bit_length()
        ones = (m ^ low) << 1
        kept_at_v = (red[v] & ones).bit_count() + (blue[v] & ~ones).bit_count()
        table[m] = table[m ^ low] + adj[v].bit_count() - 2 * kept_at_v
    best = max(table)
    mask = table.index(best)
    return best, {0: 0, **{v: (mask >> (v - 1)) & 1 for v in range(1, n)}}


def test_rb_table_matches_the_references_up_to_the_cap():
    # the plain loop up to 13 vertices; from 14 to 16 (the cap) the per-mask
    # recurrence, which the plain loop matches on the smaller hosts
    for n in range(9, 17):
        for k, (p, red) in enumerate(((0.3, 0.5), (0.6, 0.5), (0.8, 0.3))):
            g = random_graph(n, p, derive_seed(69, 10 * n + k))
            cg = random_coloring(g, derive_seed(70, 10 * n + k), red)
            want = per_mask_rb(cg)
            if n <= 13:
                assert want == reference_rb(cg)
            same_answer(max_rb_bipartite_oracle(cg), want)


# The benchmark's two fixed oracle_exact hosts, G(9, 0.6) and G(9, 0.7).
WORKLOAD_G9 = [
    Graph.from_edges(9, [
        (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 8),
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
        (3, 7), (3, 8), (4, 6), (4, 7), (4, 8), (5, 6), (5, 8), (7, 8),
    ]),
    Graph.from_edges(9, [
        (0, 2), (0, 5), (0, 8), (1, 2), (1, 4), (1, 5), (1, 7), (1, 8), (2, 3),
        (2, 4), (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 6),
        (5, 7), (6, 8), (7, 8),
    ]),
]


def unbounded_hadwiger(g, start=0):
    """Largest t >= start with a K_t minor in g itself, unreduced, asking
    find_kt_model for start + 1, start + 2, ... until one fails."""
    n, masks = g.vertex_count, list(g.adjacency_masks)
    t = start
    while t < n and find_kt_model(n, masks, t + 1) is not None:
        t += 1
    return t


def unbounded_bipartite_hadwiger(g):
    """Plain loop over the bipartitions as in reference_scan; a side's
    search starts above the best so far, since only a larger value counts."""
    n = g.vertex_count
    best, best_side = -1, None
    for mask in range(1 << (n - 1)):
        side = {0: 0, **{v: (mask >> (v - 1)) & 1 for v in range(1, n)}}
        crossing = Graph.from_edges(n, [(u, v) for u, v in g.edges if side[u] != side[v]])
        value = unbounded_hadwiger(crossing, max(best, 0))
        if value > best:
            best, best_side = value, side
    return best, best_side


def test_oracles_match_a_search_without_the_order_bound():
    hosts = [Graph.complete(n) for n in range(1, 10)]
    hosts += [
        random_graph(n, p, derive_seed(63, 10 * n + k))
        for n in range(2, 10)
        for k, p in enumerate((0.3, 0.5, 0.7))
    ]
    for g in WORKLOAD_G9 + hosts:
        assert hadwiger_oracle(g) == unbounded_hadwiger(g), sorted(g.edges)
    # without the bound a 9-vertex host with more than half of its 36
    # pairs joined takes 0.2-2.7 s to scan, so of those only the two
    # workload hosts are scanned
    for g in WORKLOAD_G9 + [h for h in hosts if h.vertex_count < 9 or len(h.edges) <= 18]:
        same_answer(max_bipartite_hadwiger(g), unbounded_bipartite_hadwiger(g))


def test_oracles_never_ask_for_t_above_the_order_bound(monkeypatch):
    @cache
    def order_bound(masks):
        # the largest t <= n with C(t, 2) <= e and 2t <= n + omega(G[V_t]),
        # V_t the vertices of degree >= t - 1, by brute force over vertex sets
        n = len(masks)
        e = sum(bin(m).count("1") for m in masks) // 2

        def passes(t):
            heavy = [v for v in range(n) if bin(masks[v]).count("1") >= t - 1]
            omega = max(
                (k for k in range(len(heavy) + 1) for vs in combinations(heavy, k)
                 if all(masks[u] >> v & 1 for u, v in combinations(vs, 2))),
                default=0,
            )
            return t * (t - 1) // 2 <= e and 2 * t <= n + omega

        return max(t for t in range(n + 1) if passes(t))

    asked = []
    top = None  # n // 2 + 1 while max_bipartite_hadwiger runs on n vertices

    def checked(n, masks, t):
        asked.append(t)
        assert t <= order_bound(tuple(masks)), (masks, t)
        assert top is None or t <= top, (masks, t)
        return find_kt_model(n, masks, t)

    monkeypatch.setattr(oracles, "find_kt_model", checked)
    for g in WORKLOAD_G9 + [random_graph(8, p, derive_seed(64, k))
                            for k, p in enumerate((0.3, 0.5, 0.7, 0.9))]:
        hadwiger_oracle(g)
        top = g.vertex_count // 2 + 1
        max_bipartite_hadwiger(g)
        top = None
    gh_max_bipartite_hadwiger(random_graph(7, 0.5, 5))
    theorem_lb_experiment(6, 2, 7)
    assert asked


def test_petersen_needs_no_k6_search(monkeypatch):
    # 3-regular, so a K_6 model has no singleton branch set and needs 12
    # vertices: the order bound is 5 and the oracle asks for no K_6
    asked = []

    def recording(n, masks, t):
        asked.append(t)
        return find_kt_model(n, masks, t)

    monkeypatch.setattr(oracles, "find_kt_model", recording)
    assert oracles._order_bound(petersen().adjacency_masks) == 5
    assert hadwiger_oracle(petersen()) == 5
    assert asked == [5]



def test_oracle_answers_are_pinned():
    # value and first side of every oracle on seeded G(n, p), n = 0..10 and
    # p = 0.1..0.9 (the sparse draws give forests, cycles and empty cores),
    # and the rows of the G(h) experiment without their wall clock
    records = []
    for n in range(11):
        for k in range(9):
            p = (k + 1) / 10
            g = random_graph(n, p, derive_seed(66, 10 * n + k))
            records.append(("hadwiger", n, p, hadwiger_oracle(g)))
            cg = random_coloring(g, derive_seed(67, 10 * n + k))
            answers = [("rb", max_rb_bipartite_oracle(cg))]
            if n <= 9:
                records.append(("tcl", n, p, tcl_oracle(g)))
                answers.append(("bip", max_bipartite_hadwiger(g)))
            if n <= 8:
                answers.append(("gh", gh_max_bipartite_hadwiger(g)))
            for name, (value, part) in answers:
                records.append((name, n, p, value, list(part.side.items())))
    for n in range(2, 8):
        for row in theorem_lb_experiment(n, 2, 68).trials:
            records.append(("lb", n, row.trial, row.seed, row.edge_count, row.hadwiger,
                            row.best_bipartite))
    assert len(records) == 471
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "f67a56ba2e7af1d182566e7c09333d5d5460e383d3f692af5a5a5c19837699fe"


# (core size, t, found) of every find_kt_model call, in call order, that
# the scans make: the kernel work a change to the scan must leave alone
SCAN_QUERIES = {
    ("max_bipartite_hadwiger", 0): [(9, 5, True), (6, 4, True), (7, 5, False), (6, 5, True)],
    ("max_bipartite_hadwiger", 1): [(9, 5, True), (5, 4, True), (6, 5, True)],
    ("gh", 7, 0): [(4, 4, True), (6, 5, True)],
    ("gh", 7, 1): [(6, 4, True), (6, 5, True)],
    ("gh", 7, 2): [(4, 4, True), (7, 5, False), (7, 5, False), (7, 5, True)],
    ("gh", 8, 0): [(7, 5, True), (7, 6, False), (8, 6, False), (8, 6, False), (8, 6, True)],
    ("gh", 8, 1): [(8, 6, False), (8, 5, True), (8, 6, False), (8, 6, True)],
    ("gh", 8, 2): [(4, 4, True), (5, 5, True), (7, 6, False), (8, 6, False), (7, 6, False),
                   (8, 6, False), (8, 6, False), (7, 6, True)],
}


@pytest.mark.parametrize("key", list(SCAN_QUERIES), ids=str)
def test_scans_ask_the_kernel_the_pinned_queries(monkeypatch, key):
    asked = []

    def recording(n, masks, t):
        found = find_kt_model(n, masks, t)
        asked.append((n, t, found is not None))
        return found

    monkeypatch.setattr(oracles, "find_kt_model", recording)
    if key[0] == "max_bipartite_hadwiger":
        value, _ = max_bipartite_hadwiger(WORKLOAD_G9[key[1]])
        assert value == 5
    else:
        _, n, k = key
        value, _ = gh_max_bipartite_hadwiger(random_graph(n, 0.5, derive_seed(n, k)))
        assert value == n - 2
    assert asked == SCAN_QUERIES[key]


def graph_of(masks):
    n = len(masks)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if masks[u] >> v & 1])


def reference_base_value(g):
    """Largest clique minor of order <= 3, by a component count: 0 with no
    vertex, 1 with no edge, 3 when some component carries a cycle, else 2."""
    n = g.vertex_count
    if n == 0:
        return 0
    if not g.edges:
        return 1
    comps, seen = 0, set()
    for s in range(n):
        if s in seen:
            continue
        comps += 1
        seen.add(s)
        stack = [s]
        while stack:
            for y in g.adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return 3 if len(g.edges) > n - comps else 2


def test_mask_reduction_matches_the_graph_reduction():
    hosts = [Graph.path(n) for n in range(0, 11)] + [Graph.cycle(n) for n in range(3, 11)]
    hosts += [Graph.complete(n) for n in range(11)] + [Graph.empty(5), octahedron(), petersen()]
    hosts += [complete_bipartite(a, b) for a, b in [(1, 3), (2, 3), (2, 5), (3, 3), (4, 5)]]
    hosts += [random_graph(n, p, derive_seed(65, 10 * n + k))
              for n in range(1, 11) for k, p in enumerate((0.2, 0.3, 0.5, 0.7))]
    # the crossing graphs and G(h) graphs the scans value, a few per host
    graphs = list(hosts)
    for k, g in enumerate(hosts):
        n, adj = g.vertex_count, g.adjacency_masks
        full = (1 << n) - 1
        non = [full & ~m & ~(1 << v) for v, m in enumerate(adj)]
        for ones in {0, (0x2C5 * (k + 1)) & full & ~1, (0x13A * (k + 3)) & full & ~1}:
            cross = oracles._crossing_masks(adj, ones)
            graphs.append(graph_of(cross))
            non_cross = oracles._crossing_masks(non, ones)
            graphs.append(graph_of([c | m & ~x for c, m, x in zip(cross, non, non_cross)]))
    assert any(len(_twin_classes(g.adjacency_masks)) < g.vertex_count for g in graphs)
    # and every graph on at most 6 vertices
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        graphs += [Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                   for bits in range(1 << len(pairs))]
    for g in graphs:
        masks = g.adjacency_masks
        core, base = oracles._series_reduce(g, 10)
        assert base == reference_base_value(g), sorted(g.edges)
        assert oracles._mask_series_reduce(masks, 10) == (core, base), sorted(g.edges)
        if len(core) > 2:  # both refuse a core above the cap, and only then
            for reduce, arg in ((oracles._series_reduce, g), (oracles._mask_series_reduce, masks)):
                with pytest.raises(InstanceTooLarge):
                    reduce(arg, len(core) - 1)
                assert reduce(arg, len(core)) == (core, base)
