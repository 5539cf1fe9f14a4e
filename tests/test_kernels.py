"""Kernel-level checks: naive reference implementations on small inputs,
plus compiled/pure agreement wherever a C compiler can build the shipped
_ckernels.c."""

import re
from itertools import combinations, permutations
from pathlib import Path

import pytest

from rbminor import kernels, oracles
from rbminor.constructions import derive_seed, keyed_uniform
from rbminor.kernels import pykernels

KERNEL_DIR = Path(__file__).resolve().parents[1] / "src" / "rbminor" / "kernels"


def masks_from_pairs(n, pairs):
    adj = [0] * n
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def random_masks(n, p, seed):
    pairs = [
        (a, b)
        for i, (a, b) in enumerate(combinations(range(n), 2))
        if keyed_uniform(seed, i) < p
    ]
    return masks_from_pairs(n, pairs), pairs


def naive_cycles(n, pairs):
    """Every simple cycle once, as the canonical tuple the kernel emits."""
    edges = {frozenset(e) for e in pairs}
    found = set()
    for k in range(3, n + 1):
        for verts in combinations(range(n), k):
            rest = verts[1:]
            for perm in permutations(rest):
                cyc = (verts[0],) + perm
                if any(
                    frozenset((cyc[i], cyc[(i + 1) % k])) not in edges
                    for i in range(k)
                ):
                    continue
                if cyc[1] < cyc[-1]:  # one orientation only
                    found.add(cyc)
    return found


def is_model(n, adj, t, parts):
    """t nonzero, disjoint, connected masks, pairwise joined by an edge."""
    if len(parts) != t:
        return False
    union = 0
    for p in parts:
        if p == 0 or union & p:
            return False
        union |= p
        # connectivity by mask BFS
        seen = p & -p
        while True:
            grow = seen
            for v in range(n):
                if (seen >> v) & 1:
                    grow |= adj[v] & p
            if grow == seen:
                break
            seen = grow
        if seen != p:
            return False
    return all(
        any(adj[v] & parts[j] for v in range(n) if (parts[i] >> v) & 1)
        for i in range(t)
        for j in range(i + 1, t)
    )


def check_model(n, adj, t, parts):
    assert is_model(n, adj, t, parts), (n, adj, t, parts)


def naive_has_minor(n, adj, t):
    """Brute force: every vertex goes to one of t parts or to none, and
    each full assignment is tested."""
    if t == 0:
        return True
    if t > n:
        return False

    def assign(idx, parts):
        if idx == n:
            return is_model(n, adj, t, parts)
        for k in range(t):
            grown = list(parts)
            grown[k] |= 1 << idx
            if assign(idx + 1, grown):
                return True
        return assign(idx + 1, parts)

    return assign(0, [0] * t)


def test_cycles_match_naive():
    for seed in range(40):
        n = 3 + seed % 5  # up to 7
        adj, pairs = random_masks(n, 0.5, derive_seed(99, seed))
        got = set(kernels.all_simple_cycles(n, adj))
        assert got == naive_cycles(n, pairs), (n, pairs)


def test_first_r_odd_cycle_agrees_with_full_scan():
    for seed in range(60):
        n = 3 + seed % 5
        adj, pairs = random_masks(n, 0.6, derive_seed(7, seed))
        red = [0] * n
        for i, (a, b) in enumerate(pairs):
            if keyed_uniform(derive_seed(8, seed), i) < 0.5:
                red[a] |= 1 << b
                red[b] |= 1 << a
        hit = kernels.first_r_odd_cycle(n, adj, red)
        exists = any(
            sum((red[c[i]] >> c[(i + 1) % len(c)]) & 1 for i in range(len(c))) % 2
            for c in kernels.all_simple_cycles(n, adj)
        )
        assert (hit is not None) == exists
        if hit is not None:
            k = len(hit)
            assert all((adj[hit[i]] >> hit[(i + 1) % k]) & 1 for i in range(k))
            assert sum((red[hit[i]] >> hit[(i + 1) % k]) & 1 for i in range(k)) % 2


def test_find_kt_model_small_exact():
    adj = masks_from_pairs(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    parts = kernels.find_kt_model(5, adj, 5)
    check_model(5, adj, 5, parts)
    assert kernels.find_kt_model(5, adj, 6) is None
    assert kernels.find_kt_model(5, adj, 0) == []
    assert kernels.find_kt_model(0, [], 1) is None

    cyc = masks_from_pairs(5, [(i, (i + 1) % 5) for i in range(5)])
    parts = kernels.find_kt_model(5, cyc, 3)
    check_model(5, cyc, 3, parts)
    assert kernels.find_kt_model(5, cyc, 4) is None


def test_find_kt_model_matches_naive_presence():
    for seed in range(30):
        n = 4 + seed % 3  # 4..6
        adj, _ = random_masks(n, 0.45, derive_seed(31, seed))
        for t in range(1, 5):
            got = kernels.find_kt_model(n, adj, t)
            want = naive_has_minor(n, adj, t)
            assert (got is not None) == want, (n, adj, t)
            if got is not None and t >= 1:
                if t == 1:
                    assert got == [1]
                else:
                    check_model(n, adj, t, got)


def test_has_tk_known_values():
    k4 = masks_from_pairs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert kernels.has_tk(4, k4, 4)
    assert not kernels.has_tk(4, k4, 5)
    c5 = masks_from_pairs(5, [(i, (i + 1) % 5) for i in range(5)])
    assert kernels.has_tk(5, c5, 3)  # the cycle itself subdivides a triangle
    assert not kernels.has_tk(5, c5, 4)
    k33 = masks_from_pairs(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert kernels.has_tk(6, k33, 4)
    assert not kernels.has_tk(6, k33, 5)
    assert kernels.has_tk(3, masks_from_pairs(3, [(0, 1)]), 2)
    assert not kernels.has_tk(3, [0, 0, 0], 2)
    assert kernels.has_tk(3, [0, 0, 0], 1)
    assert not kernels.has_tk(0, [], 1)


def test_has_tk_subdivided_k4():
    # K4 with every edge subdivided once still contains a TK_4
    pairs = []
    nxt = 4
    for a, b in combinations(range(4), 2):
        pairs += [(a, nxt), (b, nxt)]
        nxt += 1
    adj = masks_from_pairs(nxt, pairs)
    assert kernels.has_tk(nxt, adj, 4)
    assert not kernels.has_tk(nxt, adj, 5)


def test_find_compatible_small():
    p3 = masks_from_pairs(3, [(0, 1), (1, 2)])
    assert kernels.find_compatible(3, p3, 0) == []
    two = kernels.find_compatible(3, p3, 2)
    assert two is not None and len(two) == 2
    assert kernels.find_compatible(3, p3, 3) is None  # 0 and 2 never joined
    k3 = masks_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    three = kernels.find_compatible(3, k3, 3)
    assert three == [1, 2, 4]
    assert kernels.find_compatible(3, k3, 4) is None


def test_find_compatible_parts_need_no_connectivity():
    # star plus an isolated pair: {leaves} and {centre} are compatible
    g = masks_from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    got = kernels.find_compatible(4, g, 2)
    assert got is not None
    a, b = got
    assert a & b == 0
    joined = any(
        (g[v] & b) for v in range(4) if (a >> v) & 1
    )
    assert joined


def test_backends_agree(compiled_kernels):
    for seed in range(120):
        n = seed % 10
        adj, pairs = random_masks(n, 0.5, derive_seed(1234, seed))
        red = [0] * n
        for i, (a, b) in enumerate(pairs):
            if keyed_uniform(derive_seed(77, seed), i) < 0.5:
                red[a] |= 1 << b
                red[b] |= 1 << a
        assert compiled_kernels.all_simple_cycles(n, adj) == pykernels.all_simple_cycles(
            n, adj
        )
        assert compiled_kernels.first_r_odd_cycle(n, adj, red) == pykernels.first_r_odd_cycle(
            n, adj, red
        )
        for t in range(0, min(n, 5) + 2):
            assert compiled_kernels.find_kt_model(n, adj, t) == pykernels.find_kt_model(
                n, adj, t
            )
            assert compiled_kernels.has_tk(n, adj, t) == pykernels.has_tk(n, adj, t)
            assert compiled_kernels.find_compatible(n, adj, t) == pykernels.find_compatible(
                n, adj, t
            )
    # denser draws up to the exact partition cap of 12 vertices, asked for t
    # up to the order bound + 1.  A failing find_compatible search on 11 or
    # 12 vertices takes 0.2-3.4 s in pure Python, so there it is asked only
    # where a K_t model exists
    for n in (10, 11, 12):
        for k, p in enumerate((0.5, 0.7)):
            adj, _ = random_masks(n, p, derive_seed(1236, 2 * n + k))
            for t in range(oracles._order_bound(adj) + 2):
                model = pykernels.find_kt_model(n, adj, t)
                assert compiled_kernels.find_kt_model(n, adj, t) == model
                assert compiled_kernels.has_tk(n, adj, t) == pykernels.has_tk(n, adj, t)
                if n == 10 or model is not None:
                    assert compiled_kernels.find_compatible(
                        n, adj, t
                    ) == pykernels.find_compatible(n, adj, t)


def test_shipped_c_quotes_the_current_pyx():
    """The generated _ckernels.c quotes the .pyx line behind each block of
    C it emits; a .pyx edit without regenerating the C shows up here."""
    pyx = (KERNEL_DIR / "_ckernels.pyx").read_text().splitlines()
    header = re.compile(r'^\s*/\* "rbminor/kernels/_ckernels\.pyx":(\d+)$')
    marker = re.compile(r"^\s*\* ?(.*?) {13}# <{14}$")
    quoted = 0
    lineno = None
    for line in (KERNEL_DIR / "_ckernels.c").read_text().splitlines():
        if m := header.match(line):
            lineno = int(m.group(1))
        elif m := marker.match(line):
            assert lineno is not None, f"unattributed quote {line!r}"
            assert pyx[lineno - 1] == m.group(1), f"_ckernels.pyx:{lineno} drifted"
            quoted += 1
            lineno = None
    assert quoted > 0
