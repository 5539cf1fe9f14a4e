"""Certificates and the half-edge extractor.

The 4-vertex space is small enough to check every graph and colouring
exhaustively against a cycle-parity scan; larger instances are sampled
through hypothesis.
"""

import random
from collections import deque
from itertools import combinations
from math import ceil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbminor.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    Graph,
    edge_key,
)
from rbminor.rb import (
    RBBipartition,
    ROddCertificate,
    extraction_stats,
    keeps,
    rb_add_vertex,
    rb_certify,
    rb_extract_half,
)

from cycle_enum import enumerate_cycles


def has_r_odd_cycle(cg):
    for cyc in enumerate_cycles(cg.graph):
        k = len(cyc)
        reds = sum(
            1 for i in range(k) if cg.is_red(cyc[i], cyc[(i + 1) % k])
        )
        if reds % 2:
            return True
    return False


def all_colored_graphs(n):
    slots = list(combinations(range(n), 2))
    for emask in range(1 << len(slots)):
        edges = [e for i, e in enumerate(slots) if (emask >> i) & 1]
        for rmask in range(1 << len(edges)):
            red = {e for i, e in enumerate(edges) if (rmask >> i) & 1}
            yield ColoredGraph(Graph(n, frozenset(edges)), frozenset(red))


def test_exhaustive_four_vertices():
    for cg in all_colored_graphs(4):
        out = rb_certify(cg)
        if isinstance(out, RBBipartition):
            assert not has_r_odd_cycle(cg)
            assert out.is_valid_for(cg)
        else:
            assert has_r_odd_cycle(cg)
            assert out.is_valid_for(cg)


def test_all_red_triangle_is_refuted():
    cg = ColoredGraph.monochromatic(Graph.complete(3), RED)
    out = rb_certify(cg)
    assert isinstance(out, ROddCertificate)
    assert out.red_count % 2 == 1
    assert out.is_valid_for(cg)


def test_all_blue_is_trivially_one_sided():
    cg = ColoredGraph.monochromatic(Graph.complete(5), BLUE)
    out = rb_certify(cg)
    assert isinstance(out, RBBipartition)
    assert out.is_valid_for(cg)


def test_alternating_even_cycle():
    cg = ColoredGraph.monochromatic(Graph.cycle(6), RED)
    out = rb_certify(cg)
    assert isinstance(out, RBBipartition)
    sides = [out.side[v] for v in range(6)]
    assert sides == [0, 1, 0, 1, 0, 1]


def test_certificate_rejects_tampering():
    with pytest.raises(ValueError):
        ROddCertificate((0, 1, 2), 1)  # not closed
    with pytest.raises(ValueError):
        ROddCertificate((0, 1, 2, 0), 2)  # even red count


colored_graphs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
            max_size=25,
        ),
    )
)


def _assemble(n, rows):
    edges = {}
    for u, v, red in rows:
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        edges.setdefault(e, red)
    return ColoredGraph(
        Graph(n, frozenset(edges)),
        frozenset(e for e, red in edges.items() if red),
    )


@given(colored_graphs)
def test_certify_always_returns_valid_witness(data):
    n, rows = data
    cg = _assemble(n, rows)
    out = rb_certify(cg)
    assert out.is_valid_for(cg)


@given(colored_graphs)
def test_certify_branch_matches_cycle_parity(data):
    n, rows = data
    cg = _assemble(n, rows)
    out = rb_certify(cg)
    assert isinstance(out, RBBipartition) == (not has_r_odd_cycle(cg))


@given(colored_graphs)
def test_extract_half_contract(data):
    n, rows = data
    cg = _assemble(n, rows)
    order = list(range(n))
    sub, part = rb_extract_half(cg, order)
    stats = extraction_stats(cg, sub, part)
    assert part.is_valid_for(sub)
    assert stats["kept_edges"] >= stats["kept_bound"]
    assert 2 * stats["d_value"] >= stats["red_edges"] - stats["blue_edges"]
    assert stats["kept_bound"] == ceil(cg.graph.edge_count / 2)


def test_extract_half_partial_order():
    cg = ColoredGraph.from_edge_colors(
        5, [(0, 1, "R"), (1, 2, "B"), (2, 3, "R"), (3, 4, "B")]
    )
    sub, part = rb_extract_half(cg, [1, 2, 3])
    assert set(part.side) == {1, 2, 3}
    stats = extraction_stats(cg, sub, part)
    assert stats["total_edges"] == 2  # only edges inside {1,2,3} count
    assert stats["kept_edges"] >= 1


def test_extract_half_rejects_bad_order():
    cg = ColoredGraph.monochromatic(Graph.path(3), RED)
    with pytest.raises(ValueError):
        rb_extract_half(cg, [0, 0])
    with pytest.raises(ValueError):
        rb_extract_half(cg, [0, 7])


def test_add_vertex_keeps_majority():
    part = RBBipartition({0: 0, 1: 1, 2: 0})
    side, kept = rb_add_vertex(part, 3, [(0, RED), (1, RED), (2, BLUE)])
    # X keeps (1,R) crossing and (2,B) inside; Y keeps only (0,R)
    assert side == 0
    assert kept == [(1, RED), (2, BLUE)]
    with pytest.raises(ValueError):
        rb_add_vertex(part, 0, [])
    with pytest.raises(ValueError):
        rb_add_vertex(part, 3, [(9, RED)])


# Reference versions of the per-edge loops: parity union-find with a find
# closure and full path compression, the extractor over the adjacency sets
# with the kept subgraph re-parsed from sorted triples, and the two-pass
# extraction tallies.  The library's versions must give exactly the same
# results.


def reference_certify(cg):
    n = cg.graph.vertex_count
    parent = list(range(n))
    rank = [0] * n
    parity = [0] * n

    def find(x):
        start = x
        p = 0
        root = x
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        while parent[x] != root:
            nxt = parent[x]
            nxt_p = parity[x]
            parent[x] = root
            parity[x] = p
            p ^= nxt_p
            x = nxt
        return root, 0 if start == root else parity[start]

    forest = [[] for _ in range(n)]
    for u, v in sorted(cg.graph.edges):
        w = 1 if (u, v) in cg.red else 0
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            if pu ^ pv != w:
                prev = {u: u}
                queue = deque([u])
                while queue and v not in prev:
                    x = queue.popleft()
                    for y, _ in forest[x]:
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                path = [v]
                while path[-1] != u:
                    path.append(prev[path[-1]])
                walk = tuple(reversed(path)) + (u,)
                reds = sum(1 for a, b in zip(walk, walk[1:]) if cg.is_red(a, b))
                return ROddCertificate(walk, reds)
            continue
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        parent[rv] = ru
        parity[rv] = pu ^ pv ^ w
        if rank[ru] == rank[rv]:
            rank[ru] += 1
        forest[u].append((v, w))
        forest[v].append((u, w))
    return RBBipartition({v: find(v)[1] for v in range(n)})


def reference_extract_half(cg, order):
    side = {}
    for w in order:
        gain_x = gain_y = 0
        for u in cg.graph.adjacency[w]:
            if u not in side:
                continue
            sign = 1 if edge_key(u, w) in cg.red else -1
            if side[u] == 1:
                gain_x += sign
            else:
                gain_y += sign
        side[w] = 0 if gain_x >= gain_y else 1
    kept = [
        (u, v, c)
        for u, v, c in cg.colored_edges()
        if u in side and v in side and keeps(c, side[u], side[v])
    ]
    sub = ColoredGraph.from_edge_colors(cg.graph.vertex_count, kept)
    return sub, RBBipartition(side)


def reference_extraction_stats(cg, sub, partition):
    placed = set(partition.side)
    total = red = blue = d_value = 0
    for u, v in cg.graph.edges:
        if u in placed and v in placed:
            total += 1
            if (u, v) in cg.red:
                red += 1
            else:
                blue += 1
            if partition.crossing(u, v):
                d_value += 1 if (u, v) in cg.red else -1
    return {
        "total_edges": total,
        "red_edges": red,
        "blue_edges": blue,
        "kept_edges": sub.graph.edge_count,
        "kept_bound": ceil(total / 2),
        "d_value": d_value,
    }


def _cycle_edges(n, edges):
    """Sorted edges that close a cycle when edges join in sorted order."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    closing = []
    for u, v in sorted(edges):
        a, b = find(u), find(v)
        if a == b:
            closing.append((u, v))
        else:
            root[a] = b
    return closing


def pinned_cases():
    """Seeded coloured graphs with the colourings and orders the two
    loops must agree on: empty graphs, isolated vertices, RB-bipartite
    colourings, R-odd ones whose first contradiction is the first or the
    last cycle-closing edge, and fair coins; full, shuffled and partial
    orders, plus `range(n)` (as the pipeline passes it) and the reversed
    full order, where every edge's later end is its lesser one.  One graph
    in ten has 100 to 300 vertices, where union-find trees grow deep
    enough for halving and full compression to part."""
    rng = random.Random(7)
    for i in range(600):
        n = rng.randrange(100, 300) if i % 10 == 0 else rng.randrange(0, 30)
        used = rng.randrange(0, n + 1)  # vertices at or above `used` are isolated
        pairs = list(combinations(range(used), 2))
        edges = rng.sample(pairs, rng.randrange(0, min(len(pairs), 3 * used) + 1))
        planted = [rng.randrange(2) for _ in range(n)]
        red = {e for e in edges if planted[e[0]] != planted[e[1]]}
        closing = _cycle_edges(n, edges)
        kind = i % 4
        if kind == 1 and closing:
            red ^= {closing[0]}
        elif kind == 2 and closing:
            red ^= {closing[-1]}
        elif kind == 3:
            red = {e for e in edges if rng.randrange(2)}
        cg = ColoredGraph(Graph(n, frozenset(edges)), frozenset(red))
        full = list(range(n))
        shuffled = rng.sample(full, n)
        partial = rng.sample(full, rng.randrange(0, n + 1))
        yield cg, (full, shuffled, partial, range(n), full[::-1])


def test_rewritten_loops_match_the_reference():
    outcomes = set()
    for cg, orders in pinned_cases():
        got, want = rb_certify(cg), reference_certify(cg)
        assert type(got) is type(want)
        if isinstance(want, RBBipartition):
            assert list(got.side.items()) == list(want.side.items())
        else:
            assert (got.walk, got.red_count) == (want.walk, want.red_count)
        outcomes.add(type(want).__name__)
        for order in orders:
            (sub, part), (ref_sub, ref_part) = (
                rb_extract_half(cg, order), reference_extract_half(cg, order))
            assert list(part.side.items()) == list(ref_part.side.items())
            assert sub.graph.vertex_count == ref_sub.graph.vertex_count
            assert sub.graph.edges == ref_sub.graph.edges
            assert sub.red == ref_sub.red
            assert extraction_stats(cg, sub, part) == reference_extraction_stats(
                cg, sub, part)
    assert outcomes == {"RBBipartition", "ROddCertificate"}


def test_extraction_stats_match_the_reference_on_any_partition():
    # sides from no extractor run: some vertices unplaced, some keys outside
    # the graph, which the tallies must ignore
    rng = random.Random(29)
    for cg, orders in pinned_cases():
        n = cg.graph.vertex_count
        keys = rng.sample(range(-3, n + 3), rng.randrange(0, n + 7))
        part = RBBipartition({v: rng.randrange(2) for v in keys})
        for sub in (cg, rb_extract_half(cg, orders[2])[0]):
            assert extraction_stats(cg, sub, part) == reference_extraction_stats(cg, sub, part)


def _assert_sorted_own_edges(g):
    got = g.sorted_edges
    assert got == tuple(sorted(g.edges))
    own = {e: e for e in g.edges}
    assert all(own[e] is e for e in got)  # the graph's edge objects, not copies


def test_sorted_edges_matches_sorting_the_pairs():
    for n in (0, 1, 2, 60):
        _assert_sorted_own_edges(Graph.complete(n))
    # a star puts every edge in the bucket of vertex 0
    _assert_sorted_own_edges(Graph(500, frozenset((0, v) for v in range(1, 500))))
    rng = random.Random(3)
    for n in (3, 10, 100, 1000, 10_000, 100_000):
        edges = {edge_key(*rng.sample(range(n), 2)) for _ in range(2 * n)}
        _assert_sorted_own_edges(Graph(n, frozenset(edges)))
        # vertices above the last edge stay isolated, with empty buckets
        _assert_sorted_own_edges(Graph(n + 7, frozenset(edges)))


def _cycle_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)]


@pytest.mark.parametrize(
    "pairs, red, length",
    [
        # (0, n - 1) Red: the last edge in sorted order, (n - 2, n - 1),
        # contradicts after a forest path of n - 1 edges
        *[(_cycle_pairs(n), (0, n - 1), n) for n in (3, 4, 5, 1000, 10_000)],
        # a path with one Red chord, which joins the forest before the
        # path edge that closes the cycle
        ([(i, i + 1) for i in range(999)] + [(100, 900)], (100, 900), 801),
        # a star at 0 plus (1, 2): the search from 1 reaches 0 and then 2
        # before the one from 2 grows, so they meet at the end 2 itself
        ([(0, v) for v in range(1, 10)] + [(1, 2)], (1, 2), 3),
    ],
    ids=["C3", "C4", "C5", "C1000", "C10000", "path_chord", "meet_at_end"],
)
def test_odd_walk_matches_the_reference(pairs, red, length):
    # each case has as many edges as vertices
    cg = ColoredGraph(Graph.from_edges(len(pairs), pairs), frozenset({red}))
    got, want = rb_certify(cg), reference_certify(cg)
    assert isinstance(want, ROddCertificate)
    assert (got.walk, got.red_count) == (want.walk, want.red_count)
    assert got.length == length and got.is_valid_for(cg)
