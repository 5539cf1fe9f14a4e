"""End-to-end runs of every subcommand through main(argv).

Each test parses the single JSON document from stdout and checks the
exit code against the documented mapping: 0 success, 2 bad input,
3 instance too large, 4 budget or pool exhausted.
"""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbminor import cli, models, oracles
from rbminor import io as rio
from rbminor.cli import MAX_TRIALS, main
from rbminor.constructions import MAX_BOUND_N, gh_model, random_coloring, random_graph
from rbminor.graphs import BLUE, RED, ColoredGraph, Graph, edge_key
from rbminor.models import MinorModel


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def normalized(doc):
    body = {k: v for k, v in doc.items() if k != "elapsed_ms"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def mono_complete(n, color):
    edges = [(a, b, color) for a, b in combinations(range(n), 2)]
    return ColoredGraph.from_edge_colors(n, edges)


def circulant(n, jumps):
    edges = {edge_key(v, (v + j) % n) for v in range(n) for j in jumps}
    return Graph.from_edges(n, sorted(edges))


@pytest.fixture
def work(tmp_path):
    return tmp_path


def test_certify_both_outcomes(work, capsys):
    blue = work / "blue.txt"
    blue.write_text(rio.format_colored(mono_complete(3, BLUE)))
    code, doc = run(capsys, "certify", str(blue))
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["kind"] == "partition"

    red = work / "red.txt"
    red.write_text(rio.format_colored(mono_complete(3, RED)))
    code, doc = run(capsys, "certify", str(red))
    assert code == 0
    assert doc["status"] == "certificate"
    walk = doc["payload"]["walk"]
    assert walk[0] == walk[-1]
    assert doc["payload"]["red_count"] % 2 == 1


def test_extract_half_stats(work, capsys):
    f = work / "g.txt"
    f.write_text(rio.format_colored(mono_complete(6, RED)))
    code, doc = run(capsys, "extract-half", str(f))
    assert code == 0
    stats = doc["payload"]["stats"]
    assert stats["kept_edges"] >= stats["kept_bound"]
    assert stats["total_edges"] == 15
    assert len(doc["payload"]["side"]) == 6


def domino_model():
    host = Graph.cycle(6)
    return MinorModel.create(host, [(0, 1), (2, 3), (4, 5)])


def test_aux_and_lift(work, capsys):
    f = work / "model.txt"
    f.write_text(rio.format_model(domino_model()))
    code, doc = run(capsys, "aux", str(f))
    assert code == 0
    aux = doc["payload"]["auxiliary"]
    assert len(aux["paths"]) == 3
    assert len(doc["payload"]["minimized"]["parts"]) == 3

    code, doc = run(capsys, "lift", str(f), "all")
    assert code == 0
    assert doc["payload"]["bipartite"] is True

    code, doc = run(capsys, "lift", str(f), "0-1")
    assert code == 0
    assert doc["payload"]["aux_edges"] == [[0, 1]]

    code, doc = run(capsys, "lift", str(f), "0=1")
    assert code == 2
    assert doc["payload"]["code"] == "ParseError"


def test_lift_odd_cycle_certificate(work, capsys):
    host = Graph.complete(3)
    model = MinorModel.create(host, [(0,), (1,), (2,)])
    f = work / "k3.txt"
    f.write_text(rio.format_model(model))
    code, doc = run(capsys, "lift", str(f), "all")
    assert code == 0
    assert doc["status"] == "certificate"
    assert doc["payload"]["bipartite"] is False
    assert doc["payload"]["witness"]["kind"] == "odd_cycle"


def test_aux_and_lift_read_the_part_trees_once(work, capsys, monkeypatch):
    # the minimised copy and its auxiliary graph come from one read
    f = work / "model.txt"
    f.write_text(rio.format_model(gh_model(random_graph(6, 0.5, 1))[1]))
    read, calls = models._part_trees, []

    def counted(model):
        calls.append(model)
        return read(model)

    monkeypatch.setattr(models, "_part_trees", counted)
    for argv in (["aux", str(f)], ["lift", str(f), "all"]):
        calls.clear()
        code, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_aux_refuses_paths_over_the_cap_before_building_them(work, capsys, monkeypatch):
    # dominoes on C_6: each of the three canonical paths has 3 vertices
    f = work / "model.txt"
    f.write_text(rio.format_model(domino_model()))
    code, doc = run(capsys, "aux", str(f))
    listed = sum(len(row["path"]) for row in doc["payload"]["auxiliary"]["paths"])
    assert code == 0 and listed == 9
    monkeypatch.setattr(cli, "MAX_AUX_PATH_VERTICES", listed)
    code, at_cap = run(capsys, "aux", str(f))
    assert code == 0 and normalized(at_cap) == normalized(doc)
    monkeypatch.setattr(cli, "MAX_AUX_PATH_VERTICES", listed - 1)
    monkeypatch.setattr(models.AuxiliaryGraph, "path", None)  # no path is built
    built, calls = Graph.from_edges.__func__, []

    def counted(cls, n, pairs):
        calls.append(n)
        return built(cls, n, pairs)

    monkeypatch.setattr(Graph, "from_edges", classmethod(counted))
    code = main(["aux", str(f)])
    out = capsys.readouterr().out
    assert code == 3
    assert len(calls) == 1  # the parse; the minimised copy is never built
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert strict_json(out)["payload"] == {
        "code": "InstanceTooLarge",
        "message": f"aux paths would list {listed} vertices (cap {listed - 1})",
    }


def test_pipeline_plain_and_model_inputs(work, capsys):
    plain = work / "k8.txt"
    plain.write_text(rio.format_graph(Graph.complete(8)))
    code, doc = run(capsys, "pipeline", str(plain))
    assert code == 0
    assert doc["payload"]["checks"]["all"] is True
    assert doc["payload"]["m_achieved"] >= 2

    model = work / "model.txt"
    model.write_text(rio.format_model(domino_model()))
    code, doc = run(capsys, "pipeline", str(model))
    assert code == 0
    assert doc["payload"]["checks"]["all"] is True


# What `pipeline` answers for each kind of bad input file.  A plain graph
# file is read as the model whose parts are its single vertices; an error
# in the model lines of a file, or a coloured file, is worded as a plain
# graph file's error.
PIPELINE_INPUT_ERRORS = {
    "bad-part-line": ("3 3\n0 1\n1 2\n0 2\npart 0 0\n",
                      "ParseError", "unexpected trailing line: 'part 0 0'"),
    "duplicate-part": ("3 3\n0 1\n1 2\n0 2\npart 0: 0\npart 0: 1\n",
                       "ParseError", "unexpected trailing line: 'part 0: 0'"),
    "part-out-of-range": ("3 3\n0 1\n1 2\n0 2\npart 0: 7\n",
                          "ParseError", "unexpected trailing line: 'part 0: 7'"),
    "model-with-a-loop": ("3 3\n0 1\n1 1\n0 2\npart 0: 0\n",
                          "ParseError", "unexpected trailing line: 'part 0: 0'"),
    "coloured": ("3 3\n0 1 R\n1 2 B\n0 2 R\n",
                 "ParseError", "expected an uncoloured graph, got a coloured one"),
    "coloured-model": ("3 3\n0 1 R\n1 2 B\n0 2 R\npart 0: 0\n",
                       "ParseError", "unexpected trailing line: 'part 0: 0'"),
    "coloured-loop": ("3 3\n0 1 R\n1 1 B\n0 2 R\n", "ParseError", "loop at vertex 1"),
    "plain-loop": ("3 3\n0 1\n1 1\n0 2\n", "ParseError", "loop at vertex 1"),
    "bad-header": ("3\n", "ParseError", "header must be 'n m', got '3'"),
    "empty": ("# nothing\n", "ParseError", "empty graph file"),
    "missing-edge-lines": ("3 3\n0 1\n", "ParseError", "expected 3 edge lines, found 1"),
    "path-is-no-k3": ("3 2\n0 1\n1 2\n", "NotAModel", "parts 0 and 2 share no edge"),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_INPUT_ERRORS))
def test_pipeline_input_errors(work, capsys, case):
    text, code_name, message = PIPELINE_INPUT_ERRORS[case]
    f = work / "in.txt"
    f.write_text(text)
    code, doc = run(capsys, "pipeline", str(f))
    assert code == 2
    assert doc["status"] == "error"
    assert doc["payload"] == {"code": code_name, "message": message}


# SHA-256 of the normalised `pipeline` documents for K_n graph files and
# G(h) model files (h = G(n, 0.5) with the given seed)
PIPELINE_DIGESTS = {
    ("k", 1): "53956eb6eb3e5c23211c7662e163a3e3be0cc9f6a3e5f26160a1c298ad48aec8",
    ("k", 2): "6e5d1e9679c3b115c97a8185961516c192003dacce6c65aff21e68c063eff3f5",
    ("k", 3): "967795f3650045e720c114341db25bc8b94177606628155de437b00eb684ad8e",
    ("k", 4): "c455ebe140ebde77da7edc5d2669f109e85857939ed7743c93c216332c6db49e",
    ("k", 8): "73545cc4c680fefc23e6b8e439587138e6ba64f420a0e2fd5cf2b0fff39a3cca",
    ("k", 12): "3c895e03e416583e4db4708600b9d42352497f453b138f67d85a5c2f334280e2",
    ("k", 13): "f6f7e334e9436799ad9493596bcd27fa90531bbeef6a727fbebd9d1e05874e33",
    ("k", 20): "a47f5ede3745c2c66190bedc8c0fbd11cf57c3aaaf98168778286223e734f4ee",
    ("gh", 5, 1): "752be0a9ef0b5ee1ae89a4b1ca4051cb9a13b94069ba8a325ad4d8df78dc7f22",
    ("gh", 6, 2): "e4e3c0e87abfae58b045c90a6a52163f9af48a4810a887370ab309eed05a787a",
    ("gh", 7, 3): "fd822633a7103bfff78371b124e0bb1e525f2578bfe0da272726bfb21fd41ef8",
    ("gh", 8, 4): "0fef183ecedecbb56a7ab7796aafa4afa94de7b20688bfc53f41849eef512968",
}


@pytest.mark.parametrize("key", sorted(PIPELINE_DIGESTS), ids=str)
def test_pipeline_payloads_on_graph_and_model_files(work, capsys, key):
    f = work / "in.txt"
    if key[0] == "k":
        f.write_text(rio.format_graph(Graph.complete(key[1])))
    else:
        f.write_text(rio.format_model(gh_model(random_graph(key[1], 0.5, key[2]))[1]))
    code, doc = run(capsys, "pipeline", str(f))
    assert code == 0
    digest = hashlib.sha256(normalized(doc).encode()).hexdigest()
    assert digest == PIPELINE_DIGESTS[key]


def aux_model_family(family):
    """Model files behind AUX_LIFT_DIGESTS: singleton parts of K_n
    (n = 3..20), G(h) models of h = G(n, 0.5) with seed n (n = 6..16), and
    domino_model()."""
    if family == "k":
        return [MinorModel.create(Graph.complete(n), [(v,) for v in range(n)])
                for n in range(3, 21)]
    if family == "gh":
        return [gh_model(random_graph(n, 0.5, n))[1] for n in range(6, 17)]
    return [domino_model()]


# SHA-256 over the normalised `aux FILE` and `lift FILE all` documents of
# each family, one document per line
AUX_LIFT_DIGESTS = {
    ("k", "aux"): "ae1da4297c15c4e815242055fd091b1840d150436b8167a982715910c421c9fe",
    ("k", "lift"): "a7c1764bd1c46defe1541edaeb152c527b493c5664ffb457d8a629dc24a8b2ab",
    ("gh", "aux"): "0ef0b879ed10405c8f73c744400feda5493a2b66a99223b92af293ff54e0b959",
    ("gh", "lift"): "f26eb282a12fcc73cea8557413c36a05675ffd70541e63923137004bcb8a7dad",
    ("dominoes", "aux"): "6b1e42defc0bcee1450197dcfa56f0eed956bb991779f018479e94b30c164282",
    ("dominoes", "lift"): "960b59e1e6fefd84db4937caac497052bc24462f86aaeb7468ed1fcdcce0fdd7",
}


@pytest.mark.parametrize("key", sorted(AUX_LIFT_DIGESTS), ids=str)
def test_aux_and_lift_payloads_are_pinned(work, capsys, key):
    family, command = key
    f = work / "model.txt"
    lines = []
    for model in aux_model_family(family):
        f.write_text(rio.format_model(model))
        code, doc = run(capsys, command, str(f), *(("all",) if command == "lift" else ()))
        assert code == 0
        lines.append(normalized(doc))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == AUX_LIFT_DIGESTS[key]


def test_bad_input_exit_2(work, capsys):
    junk = work / "junk.txt"
    junk.write_text("this is not a graph\n")
    code, doc = run(capsys, "certify", str(junk))
    assert code == 2
    assert doc["payload"]["code"] == "ParseError"

    code, doc = run(capsys, "certify", str(work / "missing.txt"))
    assert code == 2


def test_tk_build_and_host_too_small(work, capsys):
    big = work / "k14.txt"
    big.write_text(rio.format_colored(mono_complete(14, BLUE)))
    code, doc = run(capsys, "tk-build", str(big), "--t", "3")
    assert code == 0
    assert doc["payload"]["used"] <= doc["payload"]["budget_cap"] == 7
    assert len(doc["payload"]["branch"]) == 3

    small = work / "k7.txt"
    small.write_text(rio.format_colored(mono_complete(7, BLUE)))
    code, doc = run(capsys, "tk-build", str(small), "--t", "3")
    assert code == 2
    assert doc["payload"]["code"] == "HostTooSmall"


def test_tk_bound_values(capsys):
    code, doc = run(capsys, "tk-bound", "--t", "3")
    assert code == 0
    assert doc["payload"]["min_order"] == 4
    code, doc = run(capsys, "tk-bound", "--t", "4")
    assert code == 0
    assert doc["payload"]["min_order"] == 6
    assert doc["payload"]["per_side"] == [10, 7, 6, 7, 10]


def test_gh_subdivides_non_edges(work, capsys):
    f = work / "p3.txt"
    f.write_text(rio.format_graph(Graph.path(3)))
    code, doc = run(capsys, "gh", str(f))
    assert code == 0
    assert doc["payload"]["subdivisions"] == 1
    assert doc["payload"]["host"]["vertex_count"] == 4
    assert doc["payload"]["hadwiger"] is not None


def test_oracle_kinds(work, capsys):
    k4 = work / "k4.txt"
    k4.write_text(rio.format_graph(Graph.complete(4)))
    code, doc = run(capsys, "oracle", "hadwiger", str(k4))
    assert code == 0 and doc["payload"]["value"] == 4

    k33 = work / "k33.txt"
    k33.write_text(
        rio.format_graph(
            Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        )
    )
    code, doc = run(capsys, "oracle", "tcl", str(k33))
    assert code == 0 and doc["payload"]["value"] == 4

    code, doc = run(capsys, "oracle", "bip-hadwiger", str(k4))
    assert code == 0 and doc["payload"]["value"] == 3
    assert set(doc["payload"]["side"].values()) <= {"X", "Y"}


def test_oracle_too_large_exit_3(work, capsys):
    f = work / "c12.txt"
    f.write_text(rio.format_graph(circulant(12, (1, 2))))
    code, doc = run(capsys, "oracle", "hadwiger", str(f))
    assert code == 3
    assert doc["payload"]["code"] == "InstanceTooLarge"


def write_ladder(path, n):
    """A 3-regular Moebius ladder on n vertices (n even)."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def test_oracle_refuses_a_large_core_before_building_its_masks(work, capsys):
    # a 3-regular Moebius ladder on 2 * 10^4 vertices: series reduction
    # removes nothing, and the core's adjacency masks alone would take
    # 50 MB (n^2 / 8 bytes), so the cap must be checked before they exist
    f = work / "ladder.txt"
    write_ladder(f, 20_000)
    tracemalloc.start()
    try:
        code = main(["oracle", "hadwiger", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 3
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert strict_json(out)["payload"]["code"] == "InstanceTooLarge"
    assert peak < 30e6, peak  # 16 MB with the check first, 58 MB without


def test_oracle_refuses_an_irreducible_input_before_reducing_it(work, capsys, monkeypatch):
    # the same ladder has no vertex of degree <= 2, so its core is the
    # input: a degree count refuses it before any neighbour set is built
    # (5.5 MB of sets at this size, against 0.16 MB for the degree list)
    f = work / "ladder.txt"
    write_ladder(f, 20_000)
    reduce, peaks = oracles._series_reduce, []

    def measured(g, core_cap):
        tracemalloc.start()
        try:
            return reduce(g, core_cap)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(oracles, "_series_reduce", measured)
    code = main(["oracle", "hadwiger", str(f)])
    out = capsys.readouterr().out
    assert code == 3
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert strict_json(out)["payload"] == {
        "code": "InstanceTooLarge",
        "message": "series-reduced core has 20000 vertices (cap 10)",
    }
    assert len(peaks) == 1 and peaks[0] < 1e6, peaks


def test_huge_header_exit_3_before_allocating(work, capsys):
    f = work / "huge.txt"
    f.write_text("50000000 1\n0 1 R\n")
    code, doc = run(capsys, "certify", str(f))
    assert code == 3
    assert doc["payload"]["code"] == "InstanceTooLarge"


def test_gh_refuses_a_huge_host_before_building(work, capsys):
    # 7 bytes asking for C(1500, 2) = 1,124,250 subdivision vertices
    f = work / "gh1500.txt"
    f.write_text("1500 0\n")
    started = time.perf_counter()
    code, doc = run(capsys, "gh", str(f))
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert doc["payload"]["code"] == "InstanceTooLarge"


@pytest.mark.parametrize("argv", [
    ("tk-bound", "--t", "100000000"),
    ("tk-bound", "--t", str(rio.MAX_INPUT_SIZE + 1)),
    ("experiment", "--n", "10", "--trials", "1000000000", "--seed", "1"),
    ("experiment", "--n", "10", "--trials", str(MAX_TRIALS + 1), "--seed", "1"),
], ids=["tk-bound-1e8", "tk-bound-over-cap", "experiment-1e9", "experiment-over-cap"])
def test_huge_arguments_exit_3_before_any_work(capsys, argv):
    started = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert doc["payload"]["code"] == "InstanceTooLarge"


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("n", [10**160, 10**308, 10**309, 10**400, MAX_BOUND_N + 1],
                         ids=["1e160", "1e308", "1e309", "1e400", "over-cap"])
def test_bound_refuses_n_beyond_the_float_range(capsys, n):
    started = time.perf_counter()
    code = main(["bound", "--n", str(n)])
    doc = strict_json(capsys.readouterr().out)
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert doc["payload"]["code"] == "InstanceTooLarge"


def test_bound_command(capsys):
    code, doc = run(capsys, "bound", "--n", "65536")
    assert code == 0
    assert doc["payload"]["certifies"] is True
    assert doc["payload"]["s"] == 32768
    assert doc["payload"]["relative_error"] < 1e-9

    code, doc = run(capsys, "bound", "--n", "256")
    assert code == 2
    assert doc["payload"]["code"] == "FormulaUndefined"

    # the float evaluation stays finite and accurate up to the cap
    for n in [2, 10**20, 10**150, MAX_BOUND_N]:
        assert main(["bound", "--n", str(n)]) == 0
        payload = strict_json(capsys.readouterr().out)["payload"]
        assert payload["n"] == n and payload["relative_error"] < 1e-9


def test_experiment_payload_and_jsonl(work, capsys):
    side = work / "rows.jsonl"
    code, doc = run(
        capsys,
        "experiment", "--n", "4", "--trials", "3", "--seed", "7",
        "--jsonl", str(side),
    )
    assert code == 0
    rows = doc["payload"]["trials"]
    assert len(rows) == 3
    assert all(
        set(r) == {"trial", "seed", "edges", "hadwiger", "best_bipartite"}
        for r in rows
    )
    lines = [json.loads(l) for l in side.read_text().splitlines()]
    assert len(lines) == 3
    for row, line in zip(rows, lines):
        assert line["seed"] == row["seed"]
        assert line["h"] == row["hadwiger"]
        assert line["bipartite_h"] == row["best_bipartite"]
        assert line["runtime_ms"] >= 0


def test_payloads_are_run_to_run_deterministic(work, capsys):
    plain = work / "k8.txt"
    plain.write_text(rio.format_graph(Graph.complete(8)))
    seen = set()
    for _ in range(3):
        code, doc = run(capsys, "pipeline", str(plain))
        assert code == 0
        seen.add(normalized(doc))
    assert len(seen) == 1

    seen = set()
    for _ in range(3):
        code, doc = run(capsys, "experiment", "--n", "4", "--trials", "2", "--seed", "11")
        assert code == 0
        seen.add(normalized(doc))
    assert len(seen) == 1


def test_verify_pipeline_roundtrip_and_tamper(work, capsys):
    plain = work / "k8.txt"
    plain.write_text(rio.format_graph(Graph.complete(8)))
    code, doc = run(capsys, "pipeline", str(plain))
    assert code == 0

    report = work / "report.json"
    report.write_text(rio.dumps(doc["payload"]))
    code, doc = run(capsys, "verify", "pipeline", str(report), "--graph", str(plain))
    assert code == 0
    assert doc["payload"]["checks"]["all"] is True

    bad = json.loads(report.read_text())
    bad["parts"][0] = bad["parts"][1]  # overlap breaks disjointness
    bad["roots"][0] = bad["roots"][1]
    broken = work / "broken.json"
    broken.write_text(rio.dumps(bad))
    code, doc = run(capsys, "verify", "pipeline", str(broken), "--graph", str(plain))
    assert code == 2
    assert doc["payload"]["checks"]["parts_disjoint_nonempty"] is False

    bad = json.loads(report.read_text())
    bad["parts"][0] = [99]  # not a vertex of the host
    bad["roots"][0] = 99
    broken.write_text(rio.dumps(bad))
    code, doc = run(capsys, "verify", "pipeline", str(broken), "--graph", str(plain))
    assert code == 2
    assert doc["payload"]["checks"]["parts_connected"] is False

    broken.write_text(
        '{"m_achieved": 1, "parts": [[0]], "roots": [0], "lift_edges": [[0]],'
        ' "partition": {"0": "X"}, "reserve_size": 2, "budget": {},'
        ' "from_witness": false}\n'
    )
    code, doc = run(capsys, "verify", "pipeline", str(broken), "--graph", str(plain))
    assert code == 2
    assert doc["payload"]["code"] == "ParseError"


def k10_pipeline_payload(work, capsys):
    plain = work / "k10.txt"
    plain.write_text(rio.format_graph(Graph.complete(10)))
    code, doc = run(capsys, "pipeline", str(plain))
    assert code == 0
    payload = doc["payload"]
    del payload["checks"]
    assert payload["parts"] == [[0], [1], [2, 3], [4, 5], [6, 7], [8, 9]]
    return plain, payload


def test_verify_pipeline_checks_the_minor_in_the_lift(work, capsys):
    # K_10 joins every pair of parts and connects every part, so only the
    # lift edges can show that the claimed minor is there
    plain, payload = k10_pipeline_payload(work, capsys)
    doc_file = work / "report.json"
    for lift_edges, partition in (([], {}), (payload["lift_edges"][:-1], payload["partition"])):
        doc_file.write_text(rio.dumps(dict(payload, lift_edges=lift_edges, partition=partition)))
        code, doc = run(capsys, "verify", "pipeline", str(doc_file), "--graph", str(plain))
        assert code == 2
        checks = doc["payload"]["checks"]
        assert checks["all"] is False and checks["lift_bipartite"] is True
        assert not (checks["parts_connected"] and checks["pairs_joined"]), checks


def test_verify_pipeline_refuses_roots_outside_their_parts(work, capsys):
    plain, payload = k10_pipeline_payload(work, capsys)
    doc_file = work / "report.json"
    for roots in ([99, 1, 2, 4, 6, 8], [0], [0, 1, 3, 2, 6, 8], [0, 1, 2, 4, 6, 8, 9]):
        doc_file.write_text(rio.dumps(dict(payload, roots=roots)))
        code, doc = run(capsys, "verify", "pipeline", str(doc_file), "--graph", str(plain))
        assert code == 2, roots
        assert doc["payload"] == {"code": "ParseError",
                                  "message": "malformed pipeline document"}, roots


def test_verify_pipeline_fails_a_part_that_repeats_a_vertex(work, capsys):
    plain, payload = k10_pipeline_payload(work, capsys)
    doc_file = work / "report.json"
    for part in ([2, 3, 2, 3], [2, 3, 3], [2, 2]):
        parts = payload["parts"][:2] + [part] + payload["parts"][3:]
        doc_file.write_text(rio.dumps(dict(payload, parts=parts)))
        code, doc = run(capsys, "verify", "pipeline", str(doc_file), "--graph", str(plain))
        assert code == 2, part
        checks = doc["payload"]["checks"]
        assert checks["parts_disjoint_nonempty"] is False and checks["all"] is False, part


@pytest.mark.parametrize("changes", [
    {"reserve_size": -1},
    {"budget": {"projector": 0, "bogus": 7}},
    {"budget": {"projector": -5, "connector": 0}},
    {"budget": {"projector": True}},
    {"budget": {"connector": 1.5}},
    {"budget": {"connector": "1"}},
    {"m_achieved": 0, "parts": [], "roots": []},
    {"reserve_size": 0, "budget": {"projector": 5, "connector": 9}},
], ids=["negative-reserve", "unknown-key", "negative-spend", "bool-spend",
        "float-spend", "string-spend", "no-parts", "spend-above-reserve"])
def test_verify_pipeline_refuses_a_bad_reserve_or_budget(work, capsys, changes):
    plain, payload = k10_pipeline_payload(work, capsys)
    doc_file = work / "report.json"
    doc_file.write_text(rio.dumps(dict(payload, **changes)))
    code, doc = run(capsys, "verify", "pipeline", str(doc_file), "--graph", str(plain))
    assert code == 2
    assert doc["payload"] == {"code": "ParseError", "message": "malformed pipeline document"}


def test_verify_tk_roundtrip_and_tamper(work, capsys):
    host = work / "k14.txt"
    host.write_text(rio.format_colored(mono_complete(14, BLUE)))
    code, doc = run(capsys, "tk-build", str(host), "--t", "3")
    assert code == 0

    report = work / "tk.json"
    report.write_text(rio.dumps(doc["payload"]))
    code, doc = run(capsys, "verify", "tk", str(report), "--graph", str(host))
    assert code == 0
    assert doc["payload"]["t"] == 3

    bad = json.loads(report.read_text())
    victim = str(bad["branch"][0])
    bad["side"][victim] = "Y" if bad["side"][victim] == "X" else "X"
    broken = work / "tkbad.json"
    broken.write_text(rio.dumps(bad))
    code, doc = run(capsys, "verify", "tk", str(broken), "--graph", str(host))
    assert code == 2

    bad = json.loads(report.read_text())
    del bad["side"][victim]
    broken.write_text(rio.dumps(bad))
    code, doc = run(capsys, "verify", "tk", str(broken), "--graph", str(host))
    assert code == 2
    assert doc["payload"]["code"] == "ValueError"

    bad = json.loads(report.read_text())
    bad["paths"][0]["path"] = []
    broken.write_text(rio.dumps(bad))
    code, doc = run(capsys, "verify", "tk", str(broken), "--graph", str(host))
    assert code == 2
    assert doc["payload"]["code"] == "ValueError"

    # a document that misstates its own fields: a pair listed twice, a
    # wrong vertex count, a host order other than the graph's
    for field, tamper in (
        ("paths", lambda rows: rows + rows[:1]),
        ("used", lambda used: 999),
        ("host_order", lambda order: order + 1),
    ):
        bad = json.loads(report.read_text())
        bad[field] = tamper(bad[field])
        broken.write_text(rio.dumps(bad))
        code, doc = run(capsys, "verify", "tk", str(broken), "--graph", str(host))
        assert (code, doc["payload"]["code"]) == (2, "ValueError"), field

    broken.write_text(
        '{"branch": "abc", "paths": 5, "side": {}, "host_order": 35,'
        ' "escape": false}\n'
    )
    code, doc = run(capsys, "verify", "tk", str(broken), "--graph", str(host))
    assert code == 2
    assert doc["payload"]["code"] == "ParseError"


def one_document(argv, codes=(0, 2, 3, 4)):
    """Run main(argv) and check that it exits with one of codes (never 5,
    Internal) with exactly one strict-JSON object on stdout."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(argv)
    stdout = out.getvalue()
    assert code in codes, (argv, stdout)
    assert stdout.endswith("\n") and "\n" not in stdout[:-1], stdout
    assert isinstance(strict_json(stdout), dict)


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    """Graph files of each kind, and a real pipeline and tk payload."""
    d = tmp_path_factory.mktemp("verify")
    files = {
        "k8.txt": rio.format_graph(Graph.complete(8)),
        "c20.txt": rio.format_colored(random_coloring(Graph.complete(20), 3)),
        "model.txt": rio.format_model(domino_model()),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    payloads = {}
    for kind, argv in (("pipeline", ["pipeline", str(d / "k8.txt")]),
                       ("tk", ["tk-build", str(d / "c20.txt"), "--t", "4"])):
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            assert main(argv) == 0
        payloads[kind] = json.loads(out.getvalue())["payload"]
    return d, sorted(str(d / name) for name in files), payloads


DOC_KEYS = sorted({"m_achieved", "parts", "roots", "lift_edges", "partition",
                   "reserve_size", "budget", "from_witness", "branch", "paths",
                   "side", "host_order", "escape", "budget_cap", "pair", "path",
                   "projector", "connector", "0", "1", "X", "Y"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
    | st.sampled_from([10**30, -(10**30), "", "X", "Y", "R", "0", "a"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(DOC_KEYS), inner, max_size=5),
    max_leaves=12,
)


def json_spots(doc):
    """(container, key or index) of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from json_spots(value)


@st.composite
def mutated(draw, doc):
    """doc with one to three values replaced by random JSON or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        spots = list(json_spots(doc))
        if not spots:
            break
        parent, key = draw(st.sampled_from(spots))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return doc


@settings(max_examples=80)
@given(st.data())
def test_verify_answers_fuzzed_documents_with_one_document(verify_inputs, data):
    d, graphs, payloads = verify_inputs
    kind = data.draw(st.sampled_from(["pipeline", "tk"]))
    doc = data.draw(json_values | mutated(payloads[kind]))
    (d / "doc.json").write_text(json.dumps(doc))
    graph = data.draw(st.sampled_from(graphs))
    one_document(["verify", kind, str(d / "doc.json"), "--graph", graph])


@settings(max_examples=40)
@given(st.sampled_from(["all", "none", "--"]) | st.text("0123456789-, ax", max_size=10),
       st.booleans())
def test_lift_answers_fuzzed_selectors_with_one_document(verify_inputs, selector, after_dashes):
    d, _, _ = verify_inputs
    argv = ["lift", str(d / "model.txt")] + ["--"] * after_dashes + [selector]
    try:
        one_document(argv)
    except SystemExit as exc:
        # argparse read the selector as an option, or found none: a usage
        # error, before any subcommand runs
        assert exc.code == 2 and selector.startswith("-")


@settings(max_examples=30)
@given(st.integers(-10, 40) | st.sampled_from([10**6, 10**18, -(10**18)]))
def test_tk_build_answers_any_t_with_one_document(verify_inputs, t):
    d, _, _ = verify_inputs
    one_document(["tk-build", str(d / "c20.txt"), "--t", str(t)])


@settings(max_examples=60)
@given(st.integers() | st.integers(2, MAX_BOUND_N)
       | st.sampled_from([MAX_BOUND_N, MAX_BOUND_N + 1, 10**309, -(10**309)])
       | st.integers(0, 1200).map(lambda k: 10**k))
def test_bound_answers_any_n_with_one_document(n):
    one_document(["bound", "--n", str(n)])


@settings(max_examples=40)
@given(st.integers(-3, 9) | st.sampled_from([10, 11, 10**6, 10**18, -(10**18)]),
       st.integers(-2, 2) | st.sampled_from([MAX_TRIALS + 1, 10**6, 10**18, -(10**18)]),
       st.integers(-2, 2) | st.sampled_from([2**64, -(2**64), 10**30]))
def test_experiment_answers_any_n_and_trials_with_one_document(n, trials, seed):
    one_document(["experiment", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
                 codes=(0, 2, 3))


def test_argparse_rejects_unknown_usage():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main(["oracle", "no-such-kind", "x.txt"])


def test_installed_console_script(work):
    exe = shutil.which("rbminor")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "tk-bound", "--t", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["min_order"] == 4


def _python(*args):
    """A fresh interpreter that imports rbminor from this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_leaves_mpmath_unloaded():
    # only the counting bound's recheck needs mpmath; every other command
    # starts without paying for its import
    proc = _python("-c", "import sys, rbminor, rbminor.cli; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_module_runs_as_a_process():
    proc = _python("-m", "rbminor.cli", "tk-bound", "--t", "3")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["payload"]["min_order"] == 4
