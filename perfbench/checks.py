"""Independent checks of the program's outputs.

Nothing here imports rbminor or compares against a stored copy of an
earlier output: every answer is re-derived from the generated inputs by a
different computation (BFS parity colouring, recounts, set-partition
brute force, Gray-code enumeration, networkx, scipy).  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import pickle
from functools import lru_cache
from itertools import combinations
from math import ceil, comb
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from inputs import (RED, ParityBase, edge_digest, oracle_round, parity_base_path,
                    tk_host_order)


# ---------------------------------------------------------------- parity


def _arrays(us, vs, red):
    return (np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64),
            np.frombuffer(bytes(red), dtype=np.uint8).astype(bool))


def parity_two_colouring(n: int, us, vs, red) -> bool:
    """Colour each vertex by the parity of Red edges on its BFS-tree path
    from the component root; RB-bipartite iff every edge agrees."""
    u, v, r = _arrays(us, vs, red)
    adj = csr_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    reds = csr_matrix((r.astype(np.int8) + 1, (u, v)), shape=(n, n))
    reds = reds + reds.T  # 2 for Red, 1 for Blue, either direction
    colour = [0] * n
    _, labels = connected_components(adj, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    for root in roots.tolist():
        order, pred = breadth_first_order(adj, root, directed=False, return_predecessors=True)
        order = order[1:]
        tree_red = (np.asarray(reds[pred[order], order]).ravel() == 2).tolist()
        parent = pred[order].tolist()
        for x, p, b in zip(order.tolist(), parent, tree_red):
            colour[x] = colour[p] ^ b
    c = np.array(colour, dtype=bool)
    return bool(np.all((c[u] != c[v]) == r))


def _side_array(side: str, n: int):
    if len(side) != n or set(side) - {"0", "1"}:
        return None
    return np.frombuffer(side.encode(), dtype=np.uint8) == ord("1")


def check_partition(n, us, vs, red, side: str) -> list[str]:
    """Side rule recount: Red edges cross, Blue edges stay inside."""
    s = _side_array(side, n)
    if s is None:
        return ["partition does not place every vertex on side 0 or 1"]
    u, v, r = _arrays(us, vs, red)
    bad = int(np.count_nonzero((s[u] != s[v]) != r))
    return [f"{bad} edges break the side rule"] if bad else []


def check_walk(n, us, vs, red, walk, red_count) -> list[str]:
    """An R-odd certificate: closed, on host edges, odd Red count."""
    if len(walk) < 4 or walk[0] != walk[-1]:
        return ["walk is not closed or too short"]
    colour = dict(zip((a * n + b for a, b in zip(us, vs)), red))
    reds = 0
    for a, b in zip(walk, walk[1:]):
        c = colour.get(min(a, b) * n + max(a, b))
        if c is None:
            return [f"walk step ({a}, {b}) is not a host edge"]
        reds += c
    problems = []
    if reds % 2 != 1:
        problems.append(f"walk has {reds} Red edges, an even number")
    if reds != red_count:
        problems.append(f"walk reports {red_count} Red edges, recount gives {reds}")
    return problems


def check_certify(n, us, vs, red, out) -> list[str]:
    truth = parity_two_colouring(n, us, vs, red)
    if out["kind"] == "partition":
        if not truth:
            return ["partition returned for a graph that is not RB-bipartite"]
        return check_partition(n, us, vs, red, out["side"])
    if truth:
        return ["R-odd walk returned for an RB-bipartite graph"]
    return check_walk(n, us, vs, red, out["walk"], out["red_count"])


def check_extract(n, us, vs, red, out) -> list[str]:
    """Recompute the kept set from the sides and the edges, compare with
    the program's subgraph digest, and check both extraction bounds."""
    s = _side_array(out["side"], n)
    if s is None:
        return ["extraction does not place every vertex"]
    u, v, r = _arrays(us, vs, red)
    cross = s[u] != s[v]
    kept = cross == r
    keys = u * n + v
    m = len(u)
    reds = int(np.count_nonzero(r))
    d = int(np.count_nonzero(cross & r)) - int(np.count_nonzero(cross & ~r))
    problems = []
    if out["vertex_count"] != n:
        problems.append("subgraph has another vertex count")
    if list(edge_digest(keys[kept].tolist())) != out["kept_digest"]:
        problems.append("subgraph edges differ from the side-rule recount")
    if list(edge_digest(keys[kept & r].tolist())) != out["red_digest"]:
        problems.append("subgraph colours differ from the host colours")
    if int(np.count_nonzero(kept)) < ceil(m / 2):
        problems.append(f"kept {int(np.count_nonzero(kept))} < ceil({m}/2)")
    if 2 * d < reds - (m - reds):
        problems.append(f"2*d = {2 * d} < red - blue = {2 * reds - m}")
    return problems


class ParityChecker:
    """Reads back the graphs the workload process generated and pickled."""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.bases: dict[int, ParityBase] = {}

    def check(self, rec) -> list[str]:
        n = rec["size"]
        if n not in self.bases:
            with open(parity_base_path(self.workdir, n), "rb") as fh:
                self.bases[n] = pickle.load(fh)
        base = self.bases[n]
        red = base.red_bits(rec["kind"])
        fn = check_certify if rec["op"] == "certify" else check_extract
        return fn(base.n, base.u, base.v, red, rec["out"])


# ---------------------------------------------------------------- oracles


def masks_of(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _connected(mask: int, adj) -> bool:
    low = mask & -mask
    seen = low
    frontier = low
    while frontier:
        v = frontier.bit_length() - 1
        frontier &= ~(1 << v)
        new = adj[v] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def _max_clique(adj: list[int], cand: int) -> int:
    if not cand:
        return 0
    best = 0
    while cand:
        if bin(cand).count("1") <= best:
            break
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        best = max(best, 1 + _max_clique(adj, cand & adj[v]))
    return best


@lru_cache(maxsize=None)
def hadwiger_brute(n: int, adj: tuple[int, ...]) -> int:
    """Largest clique minor by enumerating every set partition of the
    vertices: a K_t model plus singletons for the unused vertices is a
    partition whose connected blocks contain t pairwise adjacent ones."""
    if n == 0:
        return 0
    best = 1
    blocks: list[int] = []

    def evaluate() -> None:
        nonlocal best
        conn = [b for b in blocks if _connected(b, adj)]
        if len(conn) <= best:
            return
        reach = []
        for b in conn:
            r = 0
            x = b
            while x:
                v = x.bit_length() - 1
                x &= ~(1 << v)
                r |= adj[v]
            reach.append(r)
        q = [0] * len(conn)
        for i, j in combinations(range(len(conn)), 2):
            if reach[i] & conn[j]:
                q[i] |= 1 << j
                q[j] |= 1 << i
        best = max(best, _max_clique(q, (1 << len(conn)) - 1))

    def rec(i: int) -> None:
        if i == n:
            evaluate()
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            rec(i + 1)
            blocks[j] &= ~bit
        blocks.append(bit)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return best


def clique_number(n: int, edges) -> int:
    return _max_clique(list(masks_of(n, edges)), (1 << n) - 1)


def crossing_edges(edges, side) -> list[tuple[int, int]]:
    return [(u, v) for u, v in edges if side[u] != side[v]]


def max_rb_brute(n: int, triples) -> int:
    """Most edges kept over all 2^(n-1) partitions, walked in Gray-code
    order so each step flips one vertex and updates its incident edges."""
    inc: list[list[int]] = [[] for _ in range(n)]
    kept = [c != RED for _, _, c in triples]  # all on side 0: only Blue kept
    for i, (u, v, _) in enumerate(triples):
        inc[u].append(i)
        inc[v].append(i)
    total = best = sum(kept)
    for step in range(1, 1 << (n - 1)):
        v = (step & -step).bit_length()  # vertex 0 stays on side 0
        for i in inc[v]:
            total += -1 if kept[i] else 1
            kept[i] = not kept[i]
        best = max(best, total)
    return best


def check_bip_hadwiger(n, edges, out) -> list[str]:
    side = out["side"]
    if len(side) != n or set(side) - {0, 1}:
        return ["bipartition does not place every vertex"]
    cross = crossing_edges(edges, side)
    value = out["value"]
    problems = []
    if value * (value - 1) // 2 > len(cross) or value > n:
        problems.append(f"value {value} exceeds the edge bound of its crossing graph")
    complete = len(edges) == comb(n, 2)
    if complete and n <= 8:
        # crossing graphs of K_n are the K_{a,n-a}
        a = sum(side)
        got = hadwiger_brute(n, masks_of(n, cross))
        best = max(
            hadwiger_brute(n, masks_of(n, crossing_edges(edges, [int(v < k) for v in range(n)])))
            for k in range(n // 2 + 1)
        )
        if got != value or best != value:
            problems.append(f"K_{n}: value {value}, brute force {best} (side K_{{{a},{n - a}}}: {got})")
    elif n <= 7:
        got = hadwiger_brute(n, masks_of(n, cross))
        if got != value:
            problems.append(f"crossing graph brute force {got} != value {value}")
    return problems


def check_oracle(kind, payload, known, out) -> list[str]:
    if kind == "bip_hadwiger":
        return check_bip_hadwiger(*payload, out)
    if kind == "lb_experiment":
        n, _ = payload
        problems = []
        if out["hadwiger"] != n:
            problems.append(f"h(G(h)) = {out['hadwiger']}, expected {n}")
        if not 1 <= out["best_bipartite"] <= n or out["min_gap"] != n - out["best_bipartite"]:
            problems.append("best bipartite value or gap out of range")
        if not 0 <= out["edges"] <= comb(n, 2):
            problems.append("edge count out of range")
        return problems
    if kind == "rb_oracle":
        n, triples = payload
        side = out["side"]
        recount = sum(1 for u, v, c in triples if (side[u] != side[v]) == (c == RED))
        problems = []
        if recount != out["value"]:
            problems.append(f"partition keeps {recount}, value says {out['value']}")
        best = max_rb_brute(n, triples)
        if best != out["value"]:
            problems.append(f"Gray-code maximum {best} != value {out['value']}")
        if out["value"] < out["greedy_kept"] or out["value"] < ceil(len(triples) / 2):
            problems.append("value below the greedy extraction or ceil(e/2)")
        return problems
    if kind == "hadwiger":
        n, edges = payload
        want = known if known is not None else hadwiger_brute(n, masks_of(n, edges))
        return [] if out["value"] == want else [f"h = {out['value']}, expected {want}"]
    if kind == "tcl":
        n, edges = payload
        if known is not None:
            return [] if out["value"] == known else [f"tcl = {out['value']}, expected {known}"]
        lo, hi = clique_number(n, edges), hadwiger_brute(n, masks_of(n, edges))
        return [] if lo <= out["value"] <= hi else [f"tcl {out['value']} outside [{lo}, {hi}]"]
    if kind == "topological_lb":
        t = payload
        order = -(-t * t // 4)
        min_order = min(t + comb(s, 2) + comb(t - s, 2) for s in range(t + 1))
        want = {"host_order": order, "tcl_value": order, "min_order": min_order,
                "no_bipartite_tk": True}
        bad = {k: out[k] for k in want if out[k] != want[k]}
        return [f"topological bound fields {bad} != {want}"] if bad else []
    return [f"unknown op kind {kind}"]


class OracleChecker:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.round = None
        self.ops: list[tuple] = []

    def check(self, rec) -> list[str]:
        if rec["round"] != self.round:
            self.round = rec["round"]
            self.ops = oracle_round(self.seed, self.round)
        kind, payload, known = self.ops[rec["index"]]
        return check_oracle(kind, payload, known, rec["out"])


# ---------------------------------------------------------------- CLI


def parse_graph_text(text: str):
    """(n, edges, colour map or None) from the program's graph format."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = []
    colours = {}
    for row in rows[1 : 1 + m]:
        u, v = sorted((int(row[0]), int(row[1])))
        edges.append((u, v))
        if len(row) == 3:
            colours[(u, v)] = row[2]
    parts = [[int(x) for x in row[2:]] for row in rows[1 + m :] if row[0] == "part"]
    return n, edges, (colours or None), parts


def nx_graph(n, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def check_model_payload(g: nx.Graph, parts, lift_edges, m_achieved) -> list[str]:
    problems = []
    flat = [v for p in parts for v in p]
    if len(flat) != len(set(flat)) or any(not p for p in parts):
        problems.append("parts overlap or are empty")
    if m_achieved != len(parts) or m_achieved < 1:
        problems.append("m_achieved does not match the parts")
    if not all(nx.is_connected(g.subgraph(p)) for p in parts if p):
        problems.append("a part is not connected")
    for p, q in combinations(parts, 2):
        if not any(g.has_edge(u, v) for u in p for v in q):
            problems.append("two parts share no edge")
            break
    if not all(g.has_edge(u, v) for u, v in lift_edges):
        problems.append("lift leaves the host")
    elif not nx.is_bipartite(nx_graph(g.number_of_nodes(), lift_edges)):
        problems.append("lift is not bipartite")
    return problems


def side_ok(side: dict, edges, colours) -> bool:
    return all((side[str(u)] != side[str(v)]) == (colours[(u, v)] == RED) for u, v in edges)


def check_tk(n, colours, t, p) -> list[str]:
    g = nx_graph(n, colours)
    branch = p["branch"]
    problems = []
    if len(branch) != t or len(set(branch)) != t:
        problems.append("branch set is not t distinct vertices")
    want = {tuple(sorted(e)) for e in combinations(branch, 2)}
    got = [tuple(row["pair"]) for row in p["paths"]]
    if sorted(got) != sorted(want) or len(got) != len(set(got)):
        problems.append("not exactly one path per branch pair")
    inner: list[int] = []
    edges = []
    for row in p["paths"]:
        path = row["path"]
        if (path[0], path[-1]) != tuple(row["pair"]) or not nx.is_simple_path(g, path):
            problems.append(f"path {row['pair']} is not a host path between its pair")
            continue
        inner += path[1:-1]
        edges += [tuple(sorted(e)) for e in zip(path, path[1:])]
    if len(inner) != len(set(inner)) or set(inner) & set(branch):
        problems.append("path internals are not disjoint")
    if not side_ok(p["side"], edges, colours):
        problems.append("a path edge breaks the side rule")
    used = len(set(branch) | set(inner))
    if used != p["used"] or used > 1 + comb(t + 1, 2):
        problems.append(f"uses {used} vertices (reported {p['used']}, cap {1 + comb(t + 1, 2)})")
    return problems


def check_aux(p) -> list[str]:
    host = p["minimized"]["host"]
    g = nx_graph(host["vertex_count"], [tuple(e) for e in host["edges"]])
    parts = p["minimized"]["parts"]
    roots = p["minimized"]["roots"]
    problems = []
    for part in parts:
        sub = g.subgraph(part)
        if not nx.is_tree(sub):
            problems.append("a minimized part is not a tree")
    for a, b in combinations(range(len(parts)), 2):
        if sum(1 for u in parts[a] for v in parts[b] if g.has_edge(u, v)) != 1:
            problems.append("a part pair has other than one cross edge")
            break
    aux = p["auxiliary"]
    colour = {(u, v): c for u, v, c in aux["colored"]["edges"]}
    if aux["colored"]["vertex_count"] != len(parts) or len(colour) != comb(len(parts), 2):
        problems.append("auxiliary graph is not complete on the parts")
    for row in aux["paths"]:
        i, j = row["pair"]
        path = row["path"]
        if (path[0], path[-1]) != (roots[i], roots[j]) or not nx.is_simple_path(g, path):
            problems.append(f"canonical path {row['pair']} is not a root-to-root host path")
        elif (colour.get((i, j)) == RED) != ((len(path) - 1) % 2 == 1):
            problems.append(f"colour of {row['pair']} is not its path parity")
    return problems


def check_lift(p) -> list[str]:
    host = p["minimized_host"]
    hg = nx_graph(host["vertex_count"], [tuple(e) for e in host["edges"]])
    lifted = [tuple(e) for e in p["graph"]["edges"]]
    if not all(hg.has_edge(u, v) for u, v in lifted):
        return ["lift leaves the minimized host"]
    lg = nx_graph(p["graph"]["vertex_count"], lifted)
    if p["bipartite"] != nx.is_bipartite(lg):
        return ["bipartite flag disagrees with networkx"]
    w = p["witness"]
    if p["bipartite"]:
        side = w["side"]
        if not all(side[str(u)] != side[str(v)] for u, v in lifted):
            return ["bipartition witness breaks an edge"]
        return []
    cyc = w["vertices"]
    if len(cyc) % 2 != 1 or not all(lg.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])):
        return ["odd cycle witness is not an odd cycle of the lift"]
    return []


class CLIChecker:
    def __init__(self, seed: int, workdir: Path):
        self.files = {path.name: parse_graph_text(path.read_text())
                      for path in workdir.glob("*.txt")}

    def check(self, rec) -> list[str]:
        label = rec["label"]
        doc = json.loads(rec["stdout"])
        if label.startswith("hostile"):
            code = doc["payload"].get("code")
            if rec["code"] == 2 and code != "Internal":
                return []
            if rec["code"] == 5 and code == "Internal":
                return [] if rec["failed"] else ["exit 5 not counted as failed"]
            return [f"hostile document gave exit {rec['code']} with {code}"]
        if rec["code"] != 0 or doc["status"] not in ("ok", "certificate"):
            return [f"exit {rec['code']} status {doc['status']}"]
        p = doc["payload"]
        kind, _, name = label.partition("_")
        if kind == "pipeline":
            n, edges, _, _ = self.files[f"{name}.txt" if name.startswith("k") else f"{name}_host.txt"]
            problems = check_model_payload(nx_graph(n, edges), p["parts"],
                                           [tuple(e) for e in p["lift_edges"]], p["m_achieved"])
            return problems + ([] if p["checks"]["all"] else ["program's own checks failed"])
        if kind == "verify":
            return [] if p["checks"]["all"] else ["verify did not pass a valid payload"]
        if kind == "aux":
            return check_aux(p)
        if kind == "lift":
            return check_lift(p)
        if kind == "gh":
            n, h_edges, _, _ = self.files[f"{name}.txt"]
            gn, g_edges, _, _ = self.files[f"g{name}_host.txt"]
            host = p["host"]
            problems = []
            if host["vertex_count"] != gn or sorted(map(tuple, host["edges"])) != g_edges:
                problems.append("host differs from the subdivision of every non-edge")
            if p["subdivisions"] != comb(n, 2) - len(h_edges) or p["hadwiger"] != n:
                problems.append(f"subdivisions {p['subdivisions']} or h(G(h)) {p['hadwiger']} wrong")
            return problems
        if kind == "tk":
            t = int(label.rsplit("_", 1)[1])
            n, _, colours, _ = self.files[f"tk{t}.txt"]
            if n != tk_host_order(t):
                return ["tk host has the wrong order"]
            return check_tk(n, colours, t, p)
        if kind in ("certify", "extract"):
            n, edges, colours, _ = self.files["large.txt"]
            us = [u for u, _ in edges]
            vs = [v for _, v in edges]
            red = [1 if colours[e] == RED else 0 for e in edges]
            if kind == "certify":
                out = dict(p)
                if p["kind"] == "partition":
                    out["side"] = "".join("0" if p["side"][str(v)] == "X" else "1" for v in range(n))
                return check_certify(n, us, vs, red, out)
            sub = p["subgraph"]
            out = {
                "side": "".join("0" if p["side"][str(v)] == "X" else "1" for v in range(n)),
                "vertex_count": sub["vertex_count"],
                "kept_digest": list(edge_digest(a * n + b for a, b, _ in sub["edges"])),
                "red_digest": list(edge_digest(a * n + b for a, b, c in sub["edges"] if c == RED)),
            }
            problems = check_extract(n, us, vs, red, out)
            stats = p["stats"]
            if stats["kept_edges"] != len(sub["edges"]) or stats["total_edges"] != len(edges):
                problems.append("reported stats disagree with the subgraph")
            return problems
        return [f"no check for {label}"]


CHECKERS = {"oracle_exact": OracleChecker, "parity_large": ParityChecker,
            "construct_cli": CLIChecker}
