"""Compatible partitions, the projector/connector toolkit, and the full
bipartite-minor pipeline."""

import hashlib
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from rbminor import extract, oracles
from rbminor.constructions import (
    derive_seed,
    gh_model,
    random_coloring,
    random_graph,
)
from rbminor.errors import BudgetExhausted, InstanceTooLarge, PoolExhausted
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

    monkeypatch.setattr(extract, "find_compatible", refuse)
    for a, b in [(a, b) for a in range(7) for b in (a, a + 1) if 0 < a + b <= 12]:
        g = complete_bipartite(a, b)
        bound = oracles._order_bound(g.adjacency_masks)
        part = find_compatible_partition(g, bound)
        assert part.order == bound and part.is_valid_for(g), (a, b)


def test_find_compatible_partition_skips_the_kernel_above_the_bound(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel called above the order bound")

    monkeypatch.setattr(extract, "find_kt_model", refuse)
    monkeypatch.setattr(extract, "find_compatible", refuse)
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
    assert report.m_achieved >= 2
    assert report.reserve_size == 3
    rebuilt = report.model(g)
    rebuilt.validate()


def test_pipeline_on_complete_hosts_starts_at_the_clique_bound(monkeypatch):
    calls = Counter()
    kt_model, compatible = extract.find_kt_model, extract.find_compatible

    def counted_kt_model(*args):
        calls["find_kt_model"] += 1
        return kt_model(*args)

    def counted_compatible(*args):
        calls["find_compatible"] += 1
        return compatible(*args)

    monkeypatch.setattr(extract, "find_kt_model", counted_kt_model)
    monkeypatch.setattr(extract, "find_compatible", counted_compatible)
    achieved = []
    for n in range(10, 18):
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
    assert achieved == [4, 5, 5, 5, 6, 6, 7, 7]


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


def test_pipeline_budget_exhausted_after_reserve():
    g = Graph.complete(2)
    model = MinorModel.create(g, [(0,), (1,)])
    with pytest.raises(BudgetExhausted):
        bipartite_minor_pipeline(g, model, 0.9)  # reserve swallows everything


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


# (host builder, epsilon, branch that must run,
#  (m_achieved, budget_used, from_witness), SHA-256 of the whole report)
REPAIR_CASES = [
    pytest.param(
        lambda: gh_model(random_graph(7, 0.3, 3)), 0.25, "projector",
        (4, (("projector", 1), ("connector", 0)), False),
        "ce270b400cc5f2893da7fb2ba9944b381187d21efaeb47cca8a0f6f11d2e1f92",
        id="projector",
    ),
    pytest.param(
        lambda: gh_model(random_graph(9, 0.3, 18)), 0.25, "connector",
        (5, (("projector", 2), ("connector", 1)), False),
        "c58b07a61ca1fd97040b6789714ac007a9f3aaec37ada0173f3efca82fb84c31",
        id="connector",
    ),
    pytest.param(
        lambda: gh_model(random_graph(7, 0.3, 11)), 0.25, "witness",
        (3, (("projector", 0), ("connector", 0)), False),
        "1d15c769895adcd4e7edfed4c767d2d206c2835d47c4b0aa236c35d950baf974",
        id="witness-beaten",
    ),
    # the one input of about 480,000 searched where a witness report wins:
    # its witness of order 3 ties the plan of order 3 found after it, and a
    # tie goes to the witness
    pytest.param(
        lambda: two_vertex_part_host(11, {
            (0, 1), (1, 5), (2, 4), (2, 5), (2, 7), (2, 9), (3, 8), (3, 9),
            (4, 5), (4, 10), (5, 6),
        }),
        0.4, "witness",
        (3, (("projector", 0), ("connector", 0)), True),
        "46e1ef766e83433ce00ee58867aac64031c6bb806ebe540af5fe6143c2bf3287",
        id="witness-wins",
    ),
    pytest.param(
        lambda: gh_model(random_graph(9, 0.3, 0)), 0.1, "pool_exhausted",
        (4, (("projector", 0), ("connector", 0)), False),
        "5c8f1512a2d158c2004ef49ccff6b62674475766198dd8b1a45304ae3fbc4aa3",
        id="pool-exhausted",
    ),
    # K_18 leaves 14 active vertices, above EXACT_PARTITION_CAP, so the
    # greedy plan runs.  Its parts are connected in h1 = K_{7,7}, so it
    # reaches the order bound 7 without spending the reserve.
    pytest.param(
        lambda: singleton_clique(18), 0.25, "greedy",
        (7, (("projector", 0), ("connector", 0)), False),
        "3f0e58f1e6613c63fc5cfbe6e14cb32983eb0afa5d3bd3cc2d31ea1223e7473c",
        id="greedy",
    ),
]


def count_repair_branches(monkeypatch):
    """Counter of the repair branches the pipeline runs from now on."""
    seen = Counter()
    projector = extract.build_projector
    connector = extract.connect_pair
    greedy = extract.greedy_compatible_partition

    def counted_projector(*args):
        seen["projector"] += 1
        try:
            return projector(*args)
        except PoolExhausted:
            seen["pool_exhausted"] += 1
            raise

    def counted_connector(*args):
        res = connector(*args)
        seen["witness" if isinstance(res, RBCliqueWitness) else "connector"] += 1
        return res

    def counted_greedy(*args):
        seen["greedy"] += 1
        return greedy(*args)

    monkeypatch.setattr(extract, "build_projector", counted_projector)
    monkeypatch.setattr(extract, "connect_pair", counted_connector)
    monkeypatch.setattr(extract, "greedy_compatible_partition", counted_greedy)
    return seen


@pytest.mark.parametrize("host, epsilon, branch, pinned, digest", REPAIR_CASES)
def test_pipeline_repair_paths(monkeypatch, host, epsilon, branch, pinned, digest):
    g, model = host()
    seen = count_repair_branches(monkeypatch)
    report = bipartite_minor_pipeline(g, model, epsilon)
    checks = validate_pipeline_report(g, report)
    assert checks["all"], checks
    assert seen[branch] > 0, seen
    assert (report.m_achieved, report.budget_used, report.from_witness) == pinned
    assert report_digest(report) == digest


def test_pipeline_reports_are_pinned(monkeypatch):
    # one digest over the report, or the BudgetExhausted message, of every
    # G(h) with h = G(n, p), n = 3..12, p = 0.3 / 0.5 / 0.7 and seeds 0..7,
    # and of K_1..K_20, each at four epsilons: the repair-path layer of the
    # outputs corpus, with the repair branches it runs counted and every
    # report checked
    seen = count_repair_branches(monkeypatch)
    hosts = [
        lambda n=n, p=p, s=s: gh_model(random_graph(n, p, s))
        for n in range(3, 13) for p in (0.3, 0.5, 0.7) for s in range(8)
    ]
    hosts += [partial(singleton_clique, n) for n in range(1, 21)]
    records = []
    for host in hosts:
        for epsilon in (0.1, 0.25, 0.4, 0.6):
            g, model = host()
            try:
                report = bipartite_minor_pipeline(g, model, epsilon)
            except BudgetExhausted as exc:
                seen["budget_exhausted"] += 1
                records.append(str(exc))
                continue
            assert validate_pipeline_report(g, report)["all"], (g, epsilon)
            records.append(report_digest(report))
    assert len(records) == 1040
    assert seen == {"projector": 110, "pool_exhausted": 13, "connector": 9,
                    "witness": 29, "greedy": 9, "budget_exhausted": 8}, seen
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "ff34bbac69c8492b1d54e970769bf59d9958e1426ff4dec000a599a8ff4d7fa3"


# Reports on K_n above the exact cap.  Every model check runs on the host
# K_n with singleton parts, where a per-pair scan of the host edges costs
# O(n^2 * E).  m is the order bound of h1, the optimum.
@pytest.mark.parametrize("n, m, digest", [
    pytest.param(n, m, digest, id=str(n)) for n, m, digest in [
        (24, 10, "f8c87998205e1196ff9c83bd4b9830c385f4a4d492a4c9a7719a304180beeeaa"),
        (32, 13, "9a2e31e52b1e43d236464c7eb703e47a83a8c0522c491a781a3711fa805ef91c"),
        (64, 25, "962b032e98d11fa25593dc39957d533bb607f1bb40fc84a72713329873f89d51"),
    ]
])
def test_pipeline_reports_on_large_cliques(n, m, digest):
    g = Graph.complete(n)
    report = bipartite_minor_pipeline(g, MinorModel.create(g, [(v,) for v in range(n)]), 0.25)
    assert validate_pipeline_report(g, report)["all"]
    assert report.m_achieved == m
    assert report_digest(report) == digest


# m_achieved on G(h), h = G(n, 0.5) with seeds 0, 1, 2, at epsilon = 0.25:
# every n here leaves more than EXACT_PARTITION_CAP active vertices
GH_ABOVE_CAP = {
    18: (7, 7, 8), 19: (9, 8, 7), 20: (9, 8, 8), 21: (9, 9, 9),
    22: (10, 10, 9), 23: (10, 10, 8), 24: (11, 11, 11), 25: (11, 10, 10),
    26: (10, 10, 10), 27: (12, 11, 11), 28: (12, 12, 11), 29: (12, 12, 10),
    30: (12, 12, 11), 31: (12, 13, 13), 32: (11, 13, 13),
}
# the blob prototype of ROADMAP item 1, a floor for the pins above
GH_PROTOTYPE = {18: (7, 7, 7), 20: (7, 8, 8), 24: (9, 7, 9), 32: (10, 11, 11)}


def test_pipeline_reaches_the_order_bound_on_cliques(monkeypatch):
    planner = extract._planner
    bounds = []

    def bounding_planner(h1, active_count):
        bounds.append(oracles._order_bound(h1.adjacency_masks[:active_count]))
        return planner(h1, active_count)

    monkeypatch.setattr(extract, "_planner", bounding_planner)

    def checked(g, model):
        bounds.clear()
        report = bipartite_minor_pipeline(g, model, 0.25)
        checks = validate_pipeline_report(g, report)
        assert checks["all"], checks
        if model.order - report.reserve_size > extract.EXACT_PARTITION_CAP:
            assert report.budget() == {"projector": 0, "connector": 0}
        return report.m_achieved

    for n in range(13, 65):
        m = checked(*singleton_clique(n))
        assert m == bounds[0], (n, m, bounds)
    for n, floor in GH_PROTOTYPE.items():
        assert all(a >= b for a, b in zip(GH_ABOVE_CAP[n], floor)), n
    achieved = {
        n: tuple(checked(*gh_model(random_graph(n, 0.5, s))) for s in range(3))
        for n in GH_ABOVE_CAP
    }
    assert achieved == GH_ABOVE_CAP
