#!/usr/bin/env python3
"""Tests of the output checkers on hand-built inputs with known answers.

    python3 perfbench/selftest.py

Each checker must accept a correct output and reject each broken one.
Exits 1 and names the failing case when any expectation does not hold.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402

import checks  # noqa: E402
from inputs import complete, complete_bipartite, edge_digest, petersen  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, condition: bool) -> None:
    if not condition:
        FAILURES.append(name)


def accepts(name: str, problems: list[str]) -> None:
    expect(f"{name} should pass, got {problems}", problems == [])


def rejects(name: str, problems: list[str]) -> None:
    expect(f"{name} should be rejected", problems != [])


# a 4-cycle 0-1-2-3 plus chord 0-2; colours as bytes, 1 = Red
SQ_U = [0, 0, 0, 1, 2]
SQ_V = [1, 2, 3, 2, 3]
SQ_RB = bytes([1, 0, 1, 1, 1])  # sides 0:0 1:1 2:0 3:1 satisfy the side rule
SQ_ODD = bytes([1, 1, 1, 1, 1])  # triangle 0-1-2 all Red: R-odd


def test_parity() -> None:
    expect("square colouring is RB-bipartite",
           checks.parity_two_colouring(4, SQ_U, SQ_V, SQ_RB))
    expect("all-Red triangle is not RB-bipartite",
           not checks.parity_two_colouring(4, SQ_U, SQ_V, SQ_ODD))
    expect("two components, both fine",
           checks.parity_two_colouring(4, [0, 2], [1, 3], bytes([1, 0])))
    accepts("valid partition", checks.check_partition(4, SQ_U, SQ_V, SQ_RB, "0101"))
    rejects("partition breaking the rule", checks.check_partition(4, SQ_U, SQ_V, SQ_RB, "0110"))
    rejects("partition missing a vertex", checks.check_partition(4, SQ_U, SQ_V, SQ_RB, "010"))
    accepts("R-odd triangle walk", checks.check_walk(4, SQ_U, SQ_V, SQ_ODD, [0, 1, 2, 0], 3))
    rejects("open walk", checks.check_walk(4, SQ_U, SQ_V, SQ_ODD, [0, 1, 2, 3], 3))
    rejects("walk off the host", checks.check_walk(4, SQ_U, SQ_V, SQ_ODD, [0, 1, 3, 0], 3))
    rejects("walk with even Red count", checks.check_walk(4, SQ_U, SQ_V, SQ_RB, [0, 1, 2, 0], 2))
    rejects("walk miscounting Red", checks.check_walk(4, SQ_U, SQ_V, SQ_ODD, [0, 1, 2, 0], 1))
    rejects("partition for an R-odd graph", checks.check_certify(
        4, SQ_U, SQ_V, SQ_ODD, {"kind": "partition", "side": "0101"}))
    rejects("walk for an RB-bipartite graph", checks.check_certify(
        4, SQ_U, SQ_V, SQ_RB, {"kind": "r_odd", "walk": [0, 1, 2, 0], "red_count": 2}))


def extract_out(side: str, kept: list[tuple[int, int, int]], n: int = 4) -> dict:
    return {"side": side, "vertex_count": n,
            "kept_digest": list(edge_digest(a * n + b for a, b, _ in kept)),
            "red_digest": list(edge_digest(a * n + b for a, b, c in kept if c))}


def test_extract() -> None:
    # every edge Red: one side for all keeps nothing, below ceil(5/2)
    rejects("keeping 0 of 5 edges", checks.check_extract(4, SQ_U, SQ_V, SQ_ODD,
                                                         extract_out("0000", [])))
    side = "0101"
    kept = [(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)]
    accepts("keeping 4 of 5 edges", checks.check_extract(4, SQ_U, SQ_V, SQ_ODD,
                                                         extract_out(side, kept)))
    rejects("subgraph with an edge the rule drops", checks.check_extract(
        4, SQ_U, SQ_V, SQ_ODD, extract_out(side, kept + [(0, 2, 1)])))
    rejects("subgraph with a recoloured edge", checks.check_extract(
        4, SQ_U, SQ_V, SQ_ODD, extract_out(side, kept[:-1] + [(2, 3, 0)])))


def test_brute_force() -> None:
    def h(graph) -> int:
        n, edges = graph
        return checks.hadwiger_brute(n, checks.masks_of(n, edges))

    for n in range(1, 7):
        expect(f"h(K_{n}) = {n}", h(complete(n)) == n)
    expect("h(K_{3,3}) = 4", h(complete_bipartite(3, 3)) == 4)
    expect("h(K_{2,5}) = 3", h(complete_bipartite(2, 5)) == 3)
    expect("h(C_6) = 3", h((6, [(i, (i + 1) % 6) for i in range(6)])) == 3)
    expect("h(path) = 2", h((5, [(i, i + 1) for i in range(4)])) == 2)
    expect("h(empty) = 1", h((4, [])) == 1)
    expect("petersen is cubic on 10 vertices",
           len(petersen()[1]) == 15 and nx.is_regular(nx.Graph(petersen()[1])))
    tri = [(0, 1, "R"), (0, 2, "R"), (1, 2, "R")]
    expect("all-Red triangle keeps 2", checks.max_rb_brute(3, tri) == 2)
    expect("all-Blue triangle keeps 3",
           checks.max_rb_brute(3, [(u, v, "B") for u, v, _ in tri]) == 3)


def test_oracle() -> None:
    k4 = complete(4)  # crossing graphs K_{1,3} (h 2) and C_4 (h 3)
    accepts("max bipartite h(K_4) = 3", checks.check_oracle(
        "bip_hadwiger", k4, None, {"value": 3, "side": [0, 0, 1, 1]}))
    rejects("max bipartite h(K_4) claimed 4", checks.check_oracle(
        "bip_hadwiger", k4, None, {"value": 4, "side": [0, 0, 1, 1]}))
    rejects("value not attained by its side", checks.check_oracle(
        "bip_hadwiger", k4, None, {"value": 3, "side": [0, 0, 0, 1]}))
    accepts("h(C_5) = 3", checks.check_oracle(
        "hadwiger", (5, [(i, (i + 1) % 5) for i in range(5)]), None, {"value": 3}))
    rejects("h(Petersen) claimed 4", checks.check_oracle("hadwiger", petersen(), 5, {"value": 4}))
    rejects("tcl above h", checks.check_oracle(
        "tcl", (4, [(0, 1), (1, 2), (2, 3)]), None, {"value": 3}))
    tri = [(0, 1, "R"), (0, 2, "R"), (1, 2, "B")]
    accepts("max RB on a triangle", checks.check_oracle(
        "rb_oracle", (3, tri), None, {"value": 3, "side": [0, 1, 1], "greedy_kept": 2}))
    rejects("max RB below the greedy count", checks.check_oracle(
        "rb_oracle", (3, tri), None, {"value": 2, "side": [0, 1, 0], "greedy_kept": 3}))
    good = {"host_order": 7, "tcl_value": 7, "min_order": 9, "no_bipartite_tk": True}
    accepts("topological bound t=5", checks.check_oracle("topological_lb", 5, None, good))
    rejects("topological bound t=5 wrong order", checks.check_oracle(
        "topological_lb", 5, None, dict(good, host_order=6)))
    accepts("G(h) experiment row", checks.check_oracle(
        "lb_experiment", (7, 1), None, {"hadwiger": 7, "best_bipartite": 5, "edges": 10,
                                        "min_gap": 2}))
    rejects("G(h) lost its minor", checks.check_oracle(
        "lb_experiment", (7, 1), None, {"hadwiger": 6, "best_bipartite": 5, "edges": 10,
                                        "min_gap": 1}))


def test_cli_payloads() -> None:
    n, edges = complete(4)
    g = checks.nx_graph(n, edges)
    accepts("two singleton parts joined", checks.check_model_payload(
        g, [[0], [1]], [(0, 1)], 2))
    rejects("overlapping parts", checks.check_model_payload(g, [[0, 1], [1]], [(0, 1)], 2))
    rejects("non-bipartite lift", checks.check_model_payload(
        g, [[0], [1], [2]], [(0, 1), (1, 2), (0, 2)], 3))
    path = checks.nx_graph(4, [(0, 1), (2, 3)])
    rejects("disconnected part", checks.check_model_payload(path, [[0, 2], [1]], [(0, 1)], 2))

    # TK_3 in a 2-coloured K_5: branch 0, 1, 2; pair (1, 2) routed through 3
    colours = {e: "B" for e in combinations(range(5), 2)}
    colours[(0, 1)] = "R"
    colours[(0, 2)] = "R"
    colours[(1, 3)] = "R"
    colours[(2, 3)] = "R"
    side = {"0": "X", "1": "Y", "2": "Y", "3": "X"}
    tk = {"branch": [0, 1, 2], "side": side, "used": 4,
          "paths": [{"pair": [0, 1], "path": [0, 1]}, {"pair": [0, 2], "path": [0, 2]},
                    {"pair": [1, 2], "path": [1, 3, 2]}]}
    accepts("subdivided triangle", checks.check_tk(5, colours, 3, tk))
    rejects("subdivided triangle, wrong side", checks.check_tk(
        5, colours, 3, dict(tk, side=dict(side, **{"3": "Y"}))))
    rejects("subdivided triangle, missing pair", checks.check_tk(
        5, colours, 3, dict(tk, paths=tk["paths"][:2])))
    rejects("subdivided triangle, internal reused as branch", checks.check_tk(
        5, colours, 3, dict(tk, paths=tk["paths"][:2] + [{"pair": [1, 2], "path": [1, 0, 2]}])))

    lift = {"minimized_host": {"vertex_count": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
            "graph": {"vertex_count": 3, "edges": [[0, 1], [1, 2]]}, "bipartite": True,
            "witness": {"kind": "partition", "side": {"0": "X", "1": "Y", "2": "X"}}}
    accepts("bipartite lift", checks.check_lift(lift))
    rejects("lift flagged odd", checks.check_lift(dict(lift, bipartite=False)))

    aux = {"minimized": {"host": {"vertex_count": 3, "edges": [[0, 1], [1, 2]]},
                         "parts": [[0], [1, 2]], "roots": [0, 2]},
           "auxiliary": {"colored": {"vertex_count": 2, "edges": [[0, 1, "B"]]},
                         "paths": [{"pair": [0, 1], "path": [0, 1, 2]}]}}
    accepts("auxiliary colour is path parity", checks.check_aux(aux))
    bad = {**aux, "auxiliary": {**aux["auxiliary"],
                                "colored": {"vertex_count": 2, "edges": [[0, 1, "R"]]}}}
    rejects("auxiliary colour against parity", checks.check_aux(bad))


def main() -> int:
    for test in (test_parity, test_extract, test_brute_force, test_oracle, test_cli_payloads):
        test()
    for failure in FAILURES:
        print(f"FAIL: {failure}")
    print(f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
