"""Compatible partitions, the projector/connector toolkit, and the full
bipartite-minor pipeline."""

import gc
import hashlib
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from rbminor import extract, oracles
from rbminor.constructions import (
    derive_seed,
    gh_max_bipartite_hadwiger,
    gh_model,
    random_coloring,
    random_graph,
)
from rbminor.errors import InstanceTooLarge, PoolExhausted
from rbminor.extract import (
    ConnectorPath,
    RBCliqueWitness,
    bipartite_minor_pipeline,
    build_projector,
    connect_pair,
    greedy_compatible_partition,
    validate_pipeline_report,
)
from rbminor.graphs import BLUE, RED, ColoredGraph, Graph, edge_key
from rbminor.kernels import find_compatible
from rbminor.models import MinorModel
from rbminor.rb import RBBipartition

import compatible_partition
from compatible_partition import find_compatible_partition


def test_greedy_partition_degenerate():
    assert greedy_compatible_partition(Graph.empty(0)).parts == ()
    assert greedy_compatible_partition(Graph.empty(4)).parts == ((0,),)


def test_greedy_partition_is_compatible():
    for seed in range(15):
        n = 4 + seed % 6
        g = random_graph(n, 0.5, derive_seed(55, seed))
        part = greedy_compatible_partition(g)
        assert part.is_valid_for(g)
        assert all(g.is_connected_subset(p) for p in part.parts), part


def test_find_compatible_partition_exact():
    g = Graph.complete(4)
    part = find_compatible_partition(g, 4)
    assert part is not None and part.order == 4
    assert part.is_valid_for(g)
    assert find_compatible_partition(g, 5) is None
    with pytest.raises(InstanceTooLarge):
        find_compatible_partition(Graph.empty(13), 1)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def brute_clique_number(g, within=None):
    within = range(g.vertex_count) if within is None else within
    return max(
        (k for k in range(len(within) + 1) for vs in combinations(within, k)
         if all(g.has_edge(u, v) for u, v in combinations(vs, 2))),
        default=0,
    )


def test_clique_number_matches_brute_force():
    graphs = [Graph.empty(0), Graph.empty(1), Graph.empty(7), Graph.complete(12),
              complete_bipartite(5, 7)]
    graphs += [
        random_graph(n, p, derive_seed(61, 10 * n + k))
        for n in range(2, 13)
        for k, p in enumerate((0.3, 0.5, 0.8))
    ]
    for g in graphs:
        assert oracles._clique_number(g.adjacency_masks) == brute_clique_number(g)
        odd = [v for v in range(g.vertex_count) if v % 2]
        within = sum(1 << v for v in odd)
        assert oracles._clique_number(g.adjacency_masks, within) == brute_clique_number(g, odd)


def test_clique_number_leaves_no_cyclic_garbage():
    # a recursive closure would leave one reference cycle per call
    masks = [random_graph(n, 0.5, derive_seed(67, n)).adjacency_masks for n in range(2, 13)]
    was = gc.isenabled()
    try:
        gc.collect()
        gc.disable()
        for m in masks:
            oracles._clique_number(m)
            oracles._clique_number(m, sum(1 << v for v in range(0, len(m), 2)))
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


def max_compatible_order(g):
    """Largest m the exhaustive kernel finds; orders are monotone, since
    merging two parts of a compatible partition leaves one of order m - 1."""
    masks = list(g.adjacency_masks)
    m = 0
    while m < g.vertex_count and find_compatible(g.vertex_count, masks, m + 1):
        m += 1
    return m


def brute_order_bound(g):
    """Largest t <= n with C(t, 2) <= e and 2t <= n + omega(G[V_t]), V_t the
    vertices of degree >= t - 1, with every omega by brute force over vertex
    sets and every t tried."""
    n, e = g.vertex_count, len(g.edges)

    def passes(t):
        heavy = [v for v in range(n) if g.degree(v) >= t - 1]
        omega = brute_clique_number(g, heavy)
        return t * (t - 1) // 2 <= e and 2 * t <= n + omega

    return max(t for t in range(n + 1) if passes(t))


def test_partition_bound_is_an_upper_bound():
    graphs = [
        random_graph(2 + seed % 8, (0.3, 0.5, 0.7)[seed % 3], derive_seed(62, seed))
        for seed in range(100)
    ]
    graphs += [complete_bipartite(a, b) for a in range(5) for b in range(a, 10 - a)]
    graphs += [Graph.empty(0), Graph.empty(1), Graph.empty(5), Graph.path(7),
               Graph.cycle(8), Graph.complete(7)]
    for g in graphs:
        masks = g.adjacency_masks
        bound = brute_order_bound(g)
        assert oracles._order_bound(masks) == bound, sorted(g.edges)
        assert bound >= max_compatible_order(g)
    # a 6-cycle has no vertex of degree 3, so no K_4 singleton: 3, not
    # min(6, 4, floor((6 + 2) / 2)) = 4
    assert oracles._order_bound((12, 20, 3, 33, 34, 24)) == 3


def test_find_compatible_partition_meets_the_bound_by_a_kt_model(monkeypatch):
    # on K_{a,b} with sides differing by at most one, the split the
    # extraction leaves on a complete host, a K_bound model meets the bound
    # (unbalanced sides it overshoots: K_{1,4} has bound 3, maximum 2), so
    # the answer comes from find_kt_model; find_compatible alone took
    # seconds on K_{6,6} with m = 7
    def refuse(*args):
        raise AssertionError("find_compatible called where a K_m model exists")

    monkeypatch.setattr(compatible_partition, "find_compatible", refuse)
    for a, b in [(a, b) for a in range(7) for b in (a, a + 1) if 0 < a + b <= 12]:
        g = complete_bipartite(a, b)
        bound = oracles._order_bound(g.adjacency_masks)
        part = find_compatible_partition(g, bound)
        assert part.order == bound and part.is_valid_for(g), (a, b)


def test_find_compatible_partition_skips_the_kernel_above_the_bound(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel called above the order bound")

    monkeypatch.setattr(compatible_partition, "find_kt_model", refuse)
    monkeypatch.setattr(compatible_partition, "find_compatible", refuse)
    assert find_compatible_partition(complete_bipartite(6, 6), 8) is None
    assert find_compatible_partition(Graph.empty(0), 1) is None


def complete_colors(vertices, color):
    return {edge_key(a, b): color for a, b in combinations(vertices, 2)}


def pair_colors(colors):
    """The colour function `color(u, v)` of a pair-keyed colour table."""
    return lambda a, b: colors[edge_key(a, b)]


def test_build_projector_covers_everyone():
    # members 0..3 placed on X; pool vertices connect by colour table
    part = RBBipartition({0: 0, 1: 0, 2: 1, 3: 1})
    colors = {}
    for s in (4, 5, 6):
        for u in range(4):
            # red to X members, blue to Y members: placing s on Y covers all
            colors[edge_key(s, u)] = RED if part.side[u] == 0 else BLUE
    chain, kept, newpart = build_projector(part, [0, 1, 2, 3], [4, 5, 6], pair_colors(colors))
    assert len(chain) == 1  # first pool vertex covers all four members
    s = chain[0]
    assert kept == [(s, u) for u in range(4)]
    grown = ColoredGraph.from_edge_colors(10, [(a, b, colors[edge_key(a, b)]) for a, b in kept])
    assert newpart.is_valid_on_edges(grown)


def test_build_projector_halving_bound():
    # adversarial colours: each pool vertex can cover only half
    members = list(range(8))
    part = RBBipartition({u: 0 for u in members})
    pool = [8, 9, 10, 11]
    colors = {}
    # pool vertex 8 red to 0..3, blue to 4..7; then 9 splits the rest, etc.
    colors.update({edge_key(8, u): RED if u < 4 else BLUE for u in members})
    colors.update({edge_key(9, u): RED if u < 6 else BLUE for u in members})
    colors.update({edge_key(10, u): RED if u < 7 else BLUE for u in members})
    colors.update({edge_key(11, u): RED for u in members})
    chain, kept, newpart = build_projector(part, members, pool, pair_colors(colors))
    assert len(chain) <= 4  # floor(log2 8) + 1
    for u in members:
        assert any((s, u) in kept for s in chain)


def test_build_projector_pool_exhausted():
    part = RBBipartition({0: 0, 1: 1})
    with pytest.raises(PoolExhausted):
        build_projector(part, [0, 1], [], pair_colors({}))


def test_connect_pair_direct_one_internal():
    part = RBBipartition({0: 0, 1: 1})
    colors = {edge_key(0, 2): RED, edge_key(1, 2): BLUE,
              edge_key(0, 3): BLUE, edge_key(1, 3): BLUE,
              edge_key(2, 3): BLUE}
    out = connect_pair(part, 0, 1, "odd", [2, 3], pair_colors(colors))
    assert isinstance(out, ConnectorPath)
    assert out.path == (0, 2, 1)
    assert out.internals == (2,)
    assert out.partition.side[2] == 1  # red from X flips to Y, blue keeps


def test_connect_pair_two_internals():
    # no single vertex works: red-red or blue-blue to both endpoints
    part = RBBipartition({0: 0, 1: 1})
    colors = {
        edge_key(0, 2): RED, edge_key(1, 2): RED,
        edge_key(0, 3): BLUE, edge_key(1, 3): BLUE,
        edge_key(2, 3): BLUE,
    }
    out = connect_pair(part, 0, 1, "odd", [2, 3], pair_colors(colors))
    assert isinstance(out, ConnectorPath)
    assert len(out.internals) == 2
    # walk parity: number of red edges along the path must be odd
    reds = sum(
        1 for a, b in zip(out.path, out.path[1:]) if colors[edge_key(a, b)] == RED
    )
    assert reds % 2 == 1


def test_connect_pair_witness_when_nothing_joins():
    # all pool edges blue everywhere: an even connection cannot exist
    part = RBBipartition({0: 0, 1: 1})
    pool = [2, 3, 4, 5]
    colors = complete_colors([0, 1] + pool, BLUE)
    # x,y on opposite sides want odd parity; all-blue gives only even paths
    out = connect_pair(part, 0, 1, "odd", pool, pair_colors(colors))
    assert isinstance(out, RBCliqueWitness)
    assert out.order == 4
    assert set(out.vertices) == set(pool)
    # witness must actually describe the pool: blue within, red across
    for a, b in combinations(pool, 2):
        crossing = out.side[a] != out.side[b]
        assert crossing == (colors[edge_key(a, b)] == RED)


def test_connect_pair_parity_validation():
    part = RBBipartition({0: 0, 1: 1})
    colors = complete_colors([0, 1, 2], BLUE)
    with pytest.raises(ValueError):
        connect_pair(part, 0, 1, "even", [2], pair_colors(colors))  # sides force odd
    with pytest.raises(ValueError):
        connect_pair(part, 0, 0, "even", [2], pair_colors(colors))
    with pytest.raises(ValueError):
        connect_pair(part, 0, 1, "weird", [2], pair_colors(colors))


def test_pipeline_on_complete_host():
    g = Graph.complete(9)
    model = MinorModel.create(g, [(v,) for v in range(9)])
    report = bipartite_minor_pipeline(g, model, 0.25)
    checks = validate_pipeline_report(g, report)
    assert checks["all"], checks
    assert report.m_achieved == 5
    assert report.reserve_size == 0
    rebuilt = report.model(g)
    rebuilt.validate()


def test_pipeline_on_complete_hosts_starts_at_the_clique_bound(monkeypatch):
    # from 10 to EXACT_PARTITION_CAP parts the descent runs on h1 = K_{a,b}
    calls = Counter()
    kt_model = extract.find_kt_model

    def counted_kt_model(*args):
        calls["find_kt_model"] += 1
        return kt_model(*args)

    monkeypatch.setattr(extract, "find_kt_model", counted_kt_model)
    achieved = []
    for n in range(10, 13):
        calls.clear()
        g = Graph.complete(n)
        report = bipartite_minor_pipeline(
            g, MinorModel.create(g, [(v,) for v in range(n)]), 0.25
        )
        checks = validate_pipeline_report(g, report)
        assert checks["all"], (n, checks)
        # the first part count tried is the answer: one K_m model search
        assert calls == {"find_kt_model": 1}, (n, calls)
        achieved.append(report.m_achieved)
    assert achieved == [6, 6, 7]


def test_pipeline_on_subdivision_host():
    h = random_graph(6, 0.5, 31)
    host, model = gh_model(h)
    report = bipartite_minor_pipeline(host, model, 0.25)
    checks = validate_pipeline_report(host, report)
    assert checks["all"], checks
    assert report.m_achieved >= 1


def test_pipeline_epsilon_validation():
    g = Graph.complete(5)
    model = MinorModel.create(g, [(v,) for v in range(5)])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            bipartite_minor_pipeline(g, model, bad)


def test_pipeline_report_fields():
    g = Graph.complete(8)
    model = MinorModel.create(g, [(v,) for v in range(8)])
    report = bipartite_minor_pipeline(g, model, 0.25)
    assert len(report.parts) == report.m_achieved
    assert len(report.roots) == report.m_achieved
    assert set(report.budget()) == {"projector", "connector"}
    assert all(v >= 0 for v in report.budget().values())
    for i, part in enumerate(report.parts):
        assert report.roots[i] in part
    covered = {v for p in report.parts for v in p}
    for a, b in report.lift_edges:
        assert a in covered and b in covered
    assert len(report.partition_witness.side) >= len(covered)


def report_digest(report):
    fields = (
        report.m_achieved,
        report.parts,
        report.roots,
        report.lift_edges,
        sorted(report.partition_witness.side.items()),
        report.reserve_size,
        report.budget_used,
        report.from_witness,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def singleton_clique(n):
    g = Graph.complete(n)
    return g, MinorModel.create(g, [(v,) for v in range(n)])


def two_vertex_part_host(k, red_pairs):
    """Host on k parts whose auxiliary colouring is Red on red_pairs and
    Blue elsewhere: part i is {2i, 2i+1} with root 2i, and pair (i, j)
    gets cross edge (2i, 2j) (root path of length 1) when Red, (2i, 2j+1)
    (length 2) when Blue."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    edges += [
        (2 * i, 2 * j) if (i, j) in red_pairs else (2 * i, 2 * j + 1)
        for i, j in combinations(range(k), 2)
    ]
    g = Graph.from_edges(2 * k, edges)
    return g, MinorModel.create(
        g, [(2 * i, 2 * i + 1) for i in range(k)], [2 * i for i in range(k)]
    )


# (host builder, epsilon, plan tier that must run, m_achieved, SHA-256 of
# the whole report).  The ids name the repair branch each host exercised
# while the pipeline repaired scattered parts from a reserve.
REPAIR_CASES = [
    pytest.param(
        lambda: gh_model(random_graph(7, 0.3, 3)), 0.25, "scan", 5,
        "f6dc50636269673012a01fc81634ec18f52ee7b15a907513ccf01da41eae499b",
        id="projector",
    ),
    pytest.param(
        lambda: gh_model(random_graph(9, 0.3, 18)), 0.25, "scan", 6,
        "1ecbd165e64d7f786d8404a6b78ad24b275b8e0e80a33bec08291e29a475fa3d",
        id="connector",
    ),
    pytest.param(
        lambda: gh_model(random_graph(7, 0.3, 11)), 0.25, "scan", 5,
        "60d8587182e6b53e42a0419de69b53ad2ce37e036bc5c9f3da10e3690a171069",
        id="witness-beaten",
    ),
    # the one input of about 480,000 searched where a repair pool's
    # witness of order 3 won; 11 parts, so the descent plans it
    pytest.param(
        lambda: two_vertex_part_host(11, {
            (0, 1), (1, 5), (2, 4), (2, 5), (2, 7), (2, 9), (3, 8), (3, 9),
            (4, 5), (4, 10), (5, 6),
        }),
        0.4, "descent", 7,
        "6503297a256bec0e61e5a78a02ab7232ac79b0231d1709ce15862957fdc472d2",
        id="witness-wins",
    ),
    pytest.param(
        lambda: gh_model(random_graph(9, 0.3, 0)), 0.1, "scan", 6,
        "eeb82046a69720ab3e8f0524e6108d1fa852e0e63584e0bfff1922917d084ee5",
        id="pool-exhausted",
    ),
    # K_18 has 18 parts, above EXACT_PARTITION_CAP, so the greedy plan
    # runs; its parts are connected in h1 = K_{9,9}, and it reaches the
    # order bound 10
    pytest.param(
        lambda: singleton_clique(18), 0.25, "greedy", 10,
        "71cd25c8b7694ff594cf2f015e6e42a4e7f772f64f751220f80d586bd406602c",
        id="greedy",
    ),
]


def count_plan_tiers(monkeypatch):
    """Counter of the plan tiers the pipeline runs from now on, each seen
    through the one function that only it calls."""
    seen = Counter()

    def counted(tier, fn, *args):
        seen[tier] += 1
        return fn(*args)

    for tier, name in (("scan", "_max_hadwiger_scan"), ("descent", "_order_bound"),
                       ("greedy", "greedy_compatible_partition")):
        monkeypatch.setattr(extract, name, partial(counted, tier, getattr(extract, name)))
    return seen


def checked_report(g, model, epsilon):
    """The pipeline's report, checked, with no reserve spent."""
    report = bipartite_minor_pipeline(g, model, epsilon)
    checks = validate_pipeline_report(g, report)
    assert checks["all"], checks
    assert (report.reserve_size, report.budget(), report.from_witness) == (
        0, {"projector": 0, "connector": 0}, False
    )
    return report


@pytest.mark.parametrize("host, epsilon, tier, m, digest", REPAIR_CASES)
def test_pipeline_repair_paths(monkeypatch, host, epsilon, tier, m, digest):
    g, model = host()
    seen = count_plan_tiers(monkeypatch)
    report = checked_report(g, model, epsilon)
    assert seen == {tier: 1}, seen
    assert report.m_achieved == m
    assert report_digest(report) == digest


def test_pipeline_reports_are_pinned(monkeypatch):
    # one digest over the report of every G(h) with h = G(n, p),
    # n = 3..12, p = 0.3 / 0.5 / 0.7 and seeds 0..7, and of K_1..K_20,
    # each at four epsilons: the pipeline layer of the outputs corpus, with
    # the plan tiers it runs counted and every report checked
    seen = count_plan_tiers(monkeypatch)
    hosts = [
        lambda n=n, p=p, s=s: gh_model(random_graph(n, p, s))
        for n in range(3, 13) for p in (0.3, 0.5, 0.7) for s in range(8)
    ]
    hosts += [partial(singleton_clique, n) for n in range(1, 21)]
    records = [
        report_digest(checked_report(*host(), epsilon))
        for host in hosts
        for epsilon in (0.1, 0.25, 0.4, 0.6)
    ]
    assert len(records) == 1040
    assert seen == {"scan": 708, "descent": 300, "greedy": 32}, seen
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "dfca45e26bf93c72cfba4855b61870d6eb7d7c042160e857321fafa81f0372c6"


# Reports on K_n above the exact cap.  Every model check runs on the host
# K_n with singleton parts, where a per-pair scan of the host edges costs
# O(n^2 * E).  m is floor(n / 2) + 1, the order bound of h1, the optimum.
@pytest.mark.parametrize("n, m, digest", [
    pytest.param(n, m, digest, id=str(n)) for n, m, digest in [
        (24, 13, "2a6659321253d74f94ef84f44851eeab1c018491eadaff4004af80e7e77bc6f4"),
        (32, 17, "fce688c02121763a4a2496e934300c7254910693be08edd7af064786a292a08d"),
        (64, 33, "6a0d51ef808e5972968e7370534138b6d1f18771d3ce11f1b6b1427ed6685700"),
    ]
])
def test_pipeline_reports_on_large_cliques(n, m, digest):
    report = checked_report(*singleton_clique(n), 0.25)
    assert report.m_achieved == m
    assert report_digest(report) == digest


# m_achieved on G(h), h = G(n, 0.5) with seeds 0, 1, 2, at epsilon = 0.25:
# every n here has more than EXACT_PARTITION_CAP auxiliary vertices
GH_ABOVE_CAP = {
    18: (10, 11, 10), 19: (10, 10, 11), 20: (11, 11, 10), 21: (12, 13, 13),
    22: (13, 13, 12), 23: (12, 12, 12), 24: (13, 14, 13), 25: (14, 14, 13),
    26: (14, 13, 15), 27: (15, 14, 15), 28: (15, 14, 16), 29: (16, 15, 15),
    30: (16, 15, 15), 31: (17, 17, 15), 32: (16, 16, 17),
}
# the blob prototype of ROADMAP item 1, a floor for the pins above
GH_PROTOTYPE = {18: (7, 7, 7), 20: (7, 8, 8), 24: (9, 7, 9), 32: (10, 11, 11)}


def test_pipeline_reaches_the_order_bound_on_cliques():
    # the order bound of h1 = K_{ceil(n/2), floor(n/2)}, the bipartite
    # Hadwiger number of K_n
    for n in range(2, 65):
        assert checked_report(*singleton_clique(n), 0.25).m_achieved == n // 2 + 1, n
    for n, floor in GH_PROTOTYPE.items():
        assert all(a >= b for a, b in zip(GH_ABOVE_CAP[n], floor)), n
    achieved = {
        n: tuple(
            checked_report(*gh_model(random_graph(n, 0.5, s)), 0.25).m_achieved
            for s in range(3)
        )
        for n in GH_ABOVE_CAP
    }
    assert achieved == GH_ABOVE_CAP


# (pipeline m at epsilon 0.25, gh_max_bipartite_hadwiger) on G(h) with
# h = G(n, p) and seeds 0..7, one digit per seed
FRONTIER = {
    (3, 0.3): ("32223322", "32223322"),
    (3, 0.5): ("22332322", "22332322"),
    (3, 0.7): ("22222233", "22222233"),
    (4, 0.3): ("33433433", "33433433"),
    (4, 0.5): ("33333343", "33333343"),
    (4, 0.7): ("33333333", "33333333"),
    (5, 0.3): ("44444443", "44444443"),
    (5, 0.5): ("44443344", "44443344"),
    (5, 0.7): ("44343443", "44343443"),
    (6, 0.3): ("44455455", "44455455"),
    (6, 0.5): ("45545445", "45545445"),
    (6, 0.7): ("44554445", "44554445"),
    (7, 0.3): ("55556655", "55556655"),
    (7, 0.5): ("56555555", "56555555"),
    (7, 0.7): ("55555555", "55555555"),
    (8, 0.3): ("55666665", "55666665"),
    (8, 0.5): ("56655666", "56655666"),
    (8, 0.7): ("66666665", "66666665"),
    (9, 0.3): ("66666776", "66666776"),
    (9, 0.5): ("66666766", "66666766"),
    (9, 0.7): ("66766767", "66766767"),
    (10, 0.3): ("67667777", "77777777"),
    (10, 0.5): ("67677777", "77777777"),
    (10, 0.7): ("76777666", "77777777"),
}
# m on the hosts above SCAN_CAP when the pipeline repaired scattered parts
# from a reserve, a floor for the pins above
FRONTIER_REPAIR = {(10, 0.3): "55555655", (10, 0.5): "45555555", (10, 0.7): "55555555"}


def test_pipeline_frontier_against_the_optimum():
    # the lift is a bipartite subgraph of G(h) with a K_m minor, so m can
    # never pass the optimum over all bipartite subgraphs, and up to
    # SCAN_CAP parts the scan reaches it
    achieved = {}
    for n, p in FRONTIER:
        ms = opts = ""
        for s in range(8):
            h = random_graph(n, p, s)
            report = checked_report(*gh_model(h), 0.25)
            opt, _ = gh_max_bipartite_hadwiger(h)
            assert report.m_achieved == opt if n <= extract.SCAN_CAP else report.m_achieved <= opt
            ms += str(report.m_achieved)
            opts += str(opt)
        achieved[(n, p)] = (ms, opts)
    for key, floor in FRONTIER_REPAIR.items():
        assert all(a >= b for a, b in zip(FRONTIER[key][0], floor)), key
    assert achieved == FRONTIER
