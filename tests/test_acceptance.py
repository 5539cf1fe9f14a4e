"""Ten end-to-end checks, one per shipped guarantee.

Each test prints a single summary line ("criterion N (...): PASS - ...")
so a full run with -s reads as a checklist.  All corpora are seeded
through the package RNG; every number here is reproducible run to run.
"""

import json
import time
from functools import lru_cache
from itertools import combinations

from rbminor import io as rio
from rbminor import kernels
from rbminor.cli import main
from rbminor.constructions import (
    bce_probability_bound,
    bce_probability_bound_hp,
    bipartite_tk_min_order,
    build_gh,
    derive_seed,
    gh_model,
    keyed_value,
    random_coloring,
    random_graph,
)
from rbminor.errors import InstanceTooLarge
from rbminor.extract import (
    ConnectorPath,
    RBCliqueWitness,
    bipartite_minor_pipeline,
    connect_pair,
    validate_pipeline_report,
)
from rbminor.graphs import (
    BLUE,
    RED,
    Bipartition,
    ColoredGraph,
    Graph,
    OddCycle,
    edge_key,
    is_bipartite,
)
from rbminor.models import (
    MinorModel,
    build_auxiliary,
    lift_odd_circuit,
    lift_subgraph,
    minimize_model,
    project_odd_cycle,
)
from rbminor.oracles import hadwiger_oracle, max_bipartite_hadwiger, tcl_oracle
from rbminor.rb import RBBipartition, extraction_stats, rb_certify, rb_extract_half
from rbminor.topological import (
    budget_cap,
    rb_topological_clique,
    required_host_order,
    validate_topological_model,
)

from cycle_enum import enumerate_cycles


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=1)
def corpus():
    """1000 seeded colored graphs, n in 4..12, p cycling 0.3/0.5/0.8."""
    out = []
    ps = (0.3, 0.5, 0.8)
    for i in range(1000):
        n = 4 + i % 9
        g = random_graph(n, ps[i % 3], derive_seed(9001, i))
        out.append(random_coloring(g, derive_seed(9002, i)))
    return tuple(out)


def _cycle_red_parity(cg, cyc):
    k = len(cyc)
    return sum(1 for i in range(k) if cg.is_red(cyc[i], cyc[(i + 1) % k])) % 2


def test_criterion_1_parity_certificates():
    started = time.monotonic()
    agree = valid = scanned = partitions = 0
    for cg in corpus():
        n = cg.graph.vertex_count
        brute = kernels.first_r_odd_cycle(
            n, list(cg.graph.adjacency_masks), list(cg.red_masks)
        )
        cert = rb_certify(cg)
        balanced = isinstance(cert, RBBipartition)
        agree += (brute is None) == balanced
        valid += cert.is_valid_for(cg)
        partitions += balanced
        if n <= 7:
            # literal parity scan over every simple cycle
            clean = all(
                _cycle_red_parity(cg, c) == 0 for c in enumerate_cycles(cg.graph)
            )
            assert clean == balanced
            scanned += 1
    elapsed = time.monotonic() - started
    report(
        1,
        "parity certificates vs exhaustive cycle search",
        agree == 1000 and valid == 1000 and elapsed < 60.0,
        f"{agree}/1000 branch agreement, {valid}/1000 certificates valid, "
        f"{partitions} balanced, {scanned} full cycle scans, {elapsed:.1f}s",
    )


def test_criterion_2_half_extraction():
    good = 0
    for cg in corpus():
        sub, part = rb_extract_half(cg, tuple(range(cg.graph.vertex_count)))
        stats = extraction_stats(cg, sub, part)
        ok = stats["kept_edges"] >= stats["kept_bound"]
        ok = ok and 2 * stats["d_value"] >= stats["red_edges"] - stats["blue_edges"]
        ok = ok and part.is_valid_on_edges(sub)
        ok = ok and isinstance(rb_certify(sub), RBBipartition)
        good += ok
    report(
        2,
        "half-the-edges extraction, integer bounds",
        good == 1000,
        f"{good}/1000 subgraphs kept >= ceil(e/2) edges and certified",
    )


def _small_models(count, base_seed):
    """Minimized models: hosts on 5..8 vertices, parts of at most 3."""
    found = 0
    tick = 0
    while found < count:
        child = derive_seed(base_seed, tick)
        tick += 1
        n = 5 + child % 4
        g = random_graph(n, 0.55, child)
        k = 2 + child % 3
        masks = kernels.find_kt_model(n, list(g.adjacency_masks), k)
        if masks is None:
            continue
        parts = [tuple(v for v in range(n) if (p >> v) & 1) for p in masks]
        if any(len(p) > 3 for p in parts):
            continue
        yield (*minimize_model(g, MinorModel.create(g, parts)), child)
        found += 1


def test_criterion_3_lift_equivalence():
    checks = odd_cases = 0
    for host, model, child in _small_models(500, 7300):
        aux = build_auxiliary(model)
        k = aux.order
        all_pairs = list(combinations(range(k), 2))
        for round_, density in enumerate((0.35, 0.7, 1.01)):
            pick = derive_seed(child, round_)
            sub = [
                e
                for i, e in enumerate(all_pairs)
                if keyed_value(pick, i) % 1000 < density * 1000
            ]
            lifted = lift_subgraph(model, aux, sub)
            keep = frozenset(tuple(sorted(e)) for e in sub)
            aux_sub = ColoredGraph(Graph(k, keep), aux.colored.red & keep)
            lift_verdict = is_bipartite(lifted)
            aux_verdict = rb_certify(aux_sub)
            assert isinstance(lift_verdict, Bipartition) == isinstance(
                aux_verdict, RBBipartition
            ), (child, sub)
            if isinstance(lift_verdict, OddCycle):
                odd_cases += 1
                circ = project_odd_cycle(model, aux, lift_verdict.vertices, sub)
                reds = sum(
                    1 for a, b in zip(circ, circ[1:]) if aux.colored.is_red(a, b)
                )
                assert reds % 2 == 1, (child, circ)
                walk = lift_odd_circuit(model, aux, aux_verdict.walk)
                assert (len(walk) - 1) % 2 == 1, (child, walk)
            checks += 1
    report(
        3,
        "lift bipartite iff auxiliary subgraph balanced",
        checks == 1500,
        f"{checks} subset checks on 500 models, {odd_cases} odd-cycle cases",
    )


def test_criterion_4_subdivision_hosts():
    exact = 0
    for i in range(200):
        n = 1 + i % 8
        h = random_graph(n, (0.2, 0.5, 0.8)[i % 3], derive_seed(7400, i))
        host, _ = build_gh(h)
        exact += hadwiger_oracle(host) == n
    host4, _ = build_gh(Graph.complete(4))
    gap_value, _ = max_bipartite_hadwiger(host4)
    report(
        4,
        "subdividing non-edges preserves the clique minor order",
        exact == 200 and gap_value == 3,
        f"{exact}/200 hosts with full Hadwiger number, "
        f"bipartite ceiling {gap_value} < 4 on the complete input",
    )


def test_criterion_5_counting_bound():
    started = time.monotonic()
    evs = [bce_probability_bound(1 << k) for k in (16, 20, 24)]
    values = [ev.log_failure_bound for ev in evs]
    rels = []
    for k, ev in zip((16, 20, 24), evs):
        hp = bce_probability_bound_hp(1 << k)
        rels.append(abs(float(hp) - ev.log_failure_bound) / abs(float(hp)))
    elapsed = time.monotonic() - started
    ok = (
        values[0] < 0
        and values[0] > values[1] > values[2]
        and all(r < 1e-9 for r in rels)
        and elapsed < 1.0
    )
    report(
        5,
        "log failure bound negative and decreasing",
        ok,
        f"log bounds {values[0]:.4g} > {values[1]:.4g} > {values[2]:.4g}, "
        f"max relative error {max(rels):.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_pipeline_validity():
    valid = cross_checked = 0
    for i in range(100):
        if i % 2 == 0:
            n = 3 + (i // 2) % 10
            host = Graph.complete(n)
            model = MinorModel.create(host, [(v,) for v in range(n)])
        else:
            hn = 3 + (i // 2) % 4
            h = random_graph(hn, (0.25, 0.5, 0.75)[i % 3], derive_seed(7600, i))
            host, model = gh_model(h)
        rep = bipartite_minor_pipeline(host, model, 0.25)
        checks = validate_pipeline_report(host, rep)
        ok = checks["all"]
        try:
            ceiling, _ = max_bipartite_hadwiger(host)
            ok = ok and rep.m_achieved <= ceiling
            cross_checked += 1
        except InstanceTooLarge:
            pass
        valid += ok
    report(
        6,
        "pipeline reports valid bipartite minors",
        valid == 100,
        f"{valid}/100 reports pass all four checks, "
        f"oracle ceiling verified on {cross_checked}",
    )


def _check_connector(out, colors, parity, pool):
    if isinstance(out, ConnectorPath):
        path = out.path
        assert path[0] == 0 and path[-1] == 1
        inner = out.internals
        assert 1 <= len(inner) <= 2
        assert len(set(inner)) == len(inner) and set(inner) <= set(pool)
        reds = sum(
            1 for a, b in zip(path, path[1:]) if colors[edge_key(a, b)] == RED
        )
        assert reds % 2 == (1 if parity == "odd" else 0)
        side = out.partition.side
        for a, b in zip(path, path[1:]):
            assert (colors[edge_key(a, b)] == RED) == (side[a] != side[b])
        return False
    assert isinstance(out, RBCliqueWitness)
    assert set(out.vertices) == set(pool)
    for a, b in combinations(out.vertices, 2):
        assert (colors[edge_key(a, b)] == RED) == (out.side[a] != out.side[b])
    return True


def _join_pairs(pool):
    pairs = [(0, w) for w in pool] + [(1, w) for w in pool]
    pairs += list(combinations(pool, 2))
    return pairs


def _run_connector(pool, mask, pairs, y_side):
    part = RBBipartition({0: 0, 1: y_side})
    parity = "even" if y_side == 0 else "odd"
    colors = {
        edge_key(a, b): RED if (mask >> i) & 1 else BLUE
        for i, (a, b) in enumerate(pairs)
    }
    out = connect_pair(part, 0, 1, parity, pool, lambda a, b: colors[edge_key(a, b)])
    return _check_connector(out, colors, parity, pool)


def test_criterion_7_connector_totality():
    pool4 = (2, 3, 4, 5)
    pairs4 = _join_pairs(pool4)
    assert len(pairs4) == 14
    witnesses = total = 0
    for y_side in (0, 1):
        for mask in range(1 << 14):
            witnesses += _run_connector(pool4, mask, pairs4, y_side)
            total += 1

    pool5 = (2, 3, 4, 5, 6)
    pairs5 = _join_pairs(pool5)
    assert len(pairs5) == 20
    sampled = 0
    for y_side in (0, 1):
        seed = derive_seed(7700, y_side)
        picks = [keyed_value(seed, i) & 0xFFFFF for i in range(1000)]
        for mask in picks + [0, (1 << 20) - 1]:
            witnesses += _run_connector(pool5, mask, pairs5, y_side)
            sampled += 1
    report(
        7,
        "connector returns a short path or a clique witness",
        total == 32768 and sampled == 2004,
        f"{total} exhaustive four-vertex colorings plus {sampled} sampled "
        f"five-vertex ones, {witnesses} witness outcomes, no third outcome",
    )


def test_criterion_8_topological_builder():
    started = time.monotonic()
    built = escapes = 0
    for t in (3, 4, 5):
        n = required_host_order(t)
        for i in range(200):
            cg = random_coloring(Graph.complete(n), derive_seed(7800 + t, i))
            model = rb_topological_clique(cg, t)
            _, used = validate_topological_model(cg, model, t, cap=budget_cap(t))
            assert used <= budget_cap(t)
            built += 1
            escapes += model.escape
    elapsed = time.monotonic() - started
    report(
        8,
        "topological clique built inside the vertex budget",
        built == 600 and elapsed < 120.0,
        f"600/600 certified builds for t in 3..5, {escapes} escape cliques, "
        f"{elapsed:.1f}s",
    )


def _complete_split_masks(n, mask):
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and ((mask >> u) & 1) != ((mask >> v) & 1):
                adj[u] |= 1 << v
    return adj


def test_criterion_9_min_order_formula_and_tightness():
    for t in range(2, 13, 2):
        assert bipartite_tk_min_order(t).min_order == t * t // 4 + t // 2, t
    k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    k33 = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert tcl_oracle(k22) == 3
    assert tcl_oracle(k33) == 4
    for n in range(1, 7):
        assert tcl_oracle(Graph.complete(n)) == n
    tight = 0
    for t in (3, 4):
        n = -(-t * t // 4)
        for mask in range(1 << n):
            # the largest bipartite subgraph for a fixed split is the
            # complete bipartite graph between the two classes
            assert not kernels.has_tk(n, _complete_split_masks(n, mask), t)
        tight += 1
    report(
        9,
        "minimum order formula and tight small hosts",
        tight == 2,
        "closed form matches for even t <= 12, subdivision numbers frozen, "
        "no bipartite split of the one-smaller complete host reaches TK_t",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    red3 = tmp_path / "red3.txt"
    red3.write_text(
        rio.format_colored(
            ColoredGraph.from_edge_colors(3, [(0, 1, RED), (0, 2, RED), (1, 2, RED)])
        )
    )
    blue14 = tmp_path / "blue14.txt"
    blue14.write_text(
        rio.format_colored(
            ColoredGraph.from_edge_colors(
                14, [(a, b, BLUE) for a, b in combinations(range(14), 2)]
            )
        )
    )
    k8 = tmp_path / "k8.txt"
    k8.write_text(rio.format_graph(Graph.complete(8)))
    k4 = tmp_path / "k4.txt"
    k4.write_text(rio.format_graph(Graph.complete(4)))
    p3 = tmp_path / "p3.txt"
    p3.write_text(rio.format_graph(Graph.path(3)))
    modelf = tmp_path / "model.txt"
    modelf.write_text(
        rio.format_model(MinorModel.create(Graph.cycle(6), [(0, 1), (2, 3), (4, 5)]))
    )

    invocations = [
        ["certify", str(red3)],
        ["extract-half", str(red3)],
        ["aux", str(modelf)],
        ["lift", str(modelf), "all"],
        ["pipeline", str(k8)],
        ["tk-build", str(blue14), "--t", "3"],
        ["tk-bound", "--t", "4"],
        ["gh", str(p3)],
        ["oracle", "hadwiger", str(k4)],
        ["bound", "--n", "65536"],
        ["experiment", "--n", "4", "--trials", "3", "--seed", "7"],
    ]
    stable = 0
    for argv in invocations:
        payloads = set()
        for _ in range(3):
            code = main(argv)
            doc = json.loads(capsys.readouterr().out)
            assert code == 0, argv
            payloads.add(rio.dumps(doc["payload"]))
        assert len(payloads) == 1, argv
        stable += 1
    report(
        10,
        "replayed invocations emit identical payloads",
        stable == len(invocations),
        f"{stable} subcommand invocations byte-stable across 3 runs",
    )
