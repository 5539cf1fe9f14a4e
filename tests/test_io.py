import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbminor import io
from rbminor.cli import main
from rbminor.errors import InstanceTooLarge, ParseError
from rbminor.graphs import (
    BLUE,
    RED,
    Bipartition,
    ColoredGraph,
    Graph,
    OddCycle,
    edge_key,
)
from rbminor.models import MinorModel


def test_plain_roundtrip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert io.parse_graph(io.format_graph(g)) == g


def test_colored_roundtrip():
    cg = ColoredGraph.from_edge_colors(4, [(0, 1, "R"), (2, 3, "B")])
    assert io.parse_graph(io.format_colored(cg)) == cg


def test_model_roundtrip():
    host = Graph.cycle(6)
    model = MinorModel.create(host, [(0, 1), (2, 3), (4, 5)])
    back = io.parse_model(io.format_model(model))
    assert back == model


def test_comments_and_blank_lines():
    text = "# a file\n\n3 2\n0 1  # first\n1 2\n"
    g = io.parse_graph(text)
    assert isinstance(g, Graph) and g.edge_count == 2


PARSE_ERRORS = [
    ("", "empty graph file"),
    ("3\n", "header must be 'n m', got '3'"),
    ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("2 1\n0 1 G\n", "edge colour must be R or B, got 'G'"),
    ("3 2\n0 1 R\n1 2\n", "file mixes coloured and uncoloured edges"),
    ("2 1\n0 1\nextra\n", "unexpected trailing line: 'extra'"),
    ("2 1\n0 2\n", "edge (0, 2) out of range for 2 vertices"),
    ("x 1\n0 1\n", "vertex count: expected integer, got 'x'"),
    ("3 2\n0 1\n0 1\n", "duplicate edge (0, 1)"),
    ("3 1\n5 1\n", "edge (5, 1) out of range for 3 vertices"),
    ("3 2\n0 1\n1 0\n", "duplicate edge (0, 1)"),
    ("3 3\n0 1\n1 0\n2 2\n", "duplicate edge (0, 1)"),
    ("3 1\n1 1\n", "loop at vertex 1"),
    ("-1 0\n", "negative vertex count"),
    ("-1 1\n0 1\n", "edge (0, 1) out of range for -1 vertices"),
    ("3 1\n0 1 R B\n", "bad edge line: '0 1 R B'"),
    ("3 1\n0\t\xa01 \u2003R\tB\n", "bad edge line: '0 1 R B'"),
    ("3 1\n0 1\x0bR\n", "unexpected trailing line: 'R'"),  # \x0b ends a line
    ("3 1\n0 y\n", "edge endpoint: expected integer, got 'y'"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            io.parse_graph(text)
        assert str(exc.value) == message, text


def test_negative_edge_count_is_a_parse_error(tmp_path):
    # the per-row reader once ran "3 -5" into an IndexError (CLI exit 5)
    for text in ("3 -1\n", "3 -5\n", "3 -2\n0 1\n1 2\n2 0\n"):
        message = f"negative edge count {text.split()[1]}"
        for parse in (io.parse_graph, io.parse_model):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == message
        path = tmp_path / "negative.txt"
        path.write_text(text)
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            assert main(["certify", str(path)]) == 2
        assert json.loads(out.getvalue())["payload"]["message"] == message


MODEL_PARSE_ERRORS = [
    ("", "model file has no parts"),
    ("part 0: 0 1\npart 0: 2\n", "duplicate part 0"),
    ("part 1: 0\n", "part indices must be 0..k-1"),
    ("part 0: 0\nroot 1: 0\n", "root for unknown part 1"),
    ("part 0: 0\nwhat 0: 0\n", "bad model line: 'what 0: 0'"),
    ("part 0: 0 1\nroot 0: 0\nroot 0: 1\n", "duplicate root 0"),
    ("part x: 0\n", "part index: expected integer, got 'x'"),
    ("part 0: 0 9\n", "part vertex 9 out of range"),
    ("part 0: 0 1\npart 1: 1 2\n", "vertex 1 in two parts"),
    ("part 0: 0 1\nroot 0: 2\n", "root 2 outside its part"),
]


def test_model_parse_errors():
    for tail, message in MODEL_PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            io.parse_model("4 3\n0 1\n1 2\n2 3\n" + tail)
        assert str(exc.value) == message, tail


def test_coloured_model_hosts_are_refused():
    for text in ("2 1\n0 1 R\npart 0: 0\n", "2 1\n0 1 B\npart 0: 0\n"):
        with pytest.raises(ParseError) as exc:
            io.parse_model(text)
        assert str(exc.value) == "model hosts are uncoloured"


def test_expect_helpers():
    g = io.parse_graph("2 1\n0 1\n")
    cg = io.parse_graph("2 1\n0 1 B\n")
    assert io.expect_plain(g) is g
    assert io.expect_colored(cg) is cg
    with pytest.raises(ParseError):
        io.expect_plain(cg)
    with pytest.raises(ParseError):
        io.expect_colored(g)


def test_input_size_cap():
    big = io.MAX_INPUT_SIZE + 1
    for text in (f"{big} 1\n0 1\n", f"3 {big}\n0 1\n"):
        with pytest.raises(InstanceTooLarge):
            io.parse_graph(text)
        with pytest.raises(InstanceTooLarge):
            io.parse_model(text + "part 0: 0\n")
    at_cap = io.parse_graph(f"{io.MAX_INPUT_SIZE} 1\n0 1\n")
    assert at_cap.vertex_count == io.MAX_INPUT_SIZE


def test_json_side_roundtrip():
    side = {0: 0, 1: 1, 5: 0}
    assert io.side_from_json(io.side_json(side)) == side
    with pytest.raises(ParseError):
        io.side_from_json({"0": "Z"})


def test_witness_json_shapes():
    p = io.bipartition_json(Bipartition({0: 0, 1: 1}))
    assert p["kind"] == "partition" and p["side"] == {"0": "X", "1": "Y"}
    c = io.odd_cycle_json(OddCycle((0, 1, 2)))
    assert c == {"kind": "odd_cycle", "vertices": [0, 1, 2]}


def test_dumps_is_canonical():
    a = io.dumps({"b": 1, "a": [1, 2]})
    assert a == '{"a":[1,2],"b":1}'


# --- fuzz against the per-row parser -------------------------------------
#
# The reference below is the parser as it was before the column-wise reader:
# token lists per line, one row at a time, and Graph.from_edges's in-order
# loop.  Its one change is the negative edge count check, which the old
# reader lacked (it ran such files into an IndexError).

def _ref_significant_lines(text):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _ref_parse_int(tok, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected integer, got {tok!r}") from None


def _ref_parse_header_and_edges(rows):
    if not rows:
        raise ParseError("empty graph file")
    header = rows[0]
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {' '.join(header)!r}")
    n = _ref_parse_int(header[0], "vertex count")
    m = _ref_parse_int(header[1], "edge count")
    io._check_size(n, m)
    if m < 0:
        raise ParseError(f"negative edge count {m}")
    if len(rows) - 1 < m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    red = set()
    colored = 0
    for idx in range(1, 1 + m):
        row = rows[idx]
        if len(row) == 2:
            u, v = (_ref_parse_int(t, "edge endpoint") for t in row)
        elif len(row) == 3:
            u, v = (_ref_parse_int(t, "edge endpoint") for t in row[:2])
            if row[2] not in (RED, BLUE):
                raise ParseError(f"edge colour must be R or B, got {row[2]!r}")
            colored += 1
            if row[2] == RED:
                red.add((min(u, v), max(u, v)))
        else:
            raise ParseError(f"bad edge line: {' '.join(row)!r}")
        edges.append((u, v))
    if colored not in (0, m):
        raise ParseError("file mixes coloured and uncoloured edges")
    return n, edges, red, 1 + m


def _ref_from_edges(vertex_count, pairs):
    seen = set()
    for u, v in pairs:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        e = edge_key(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    if vertex_count < 0:
        raise ValueError("negative vertex count")
    return Graph(vertex_count, frozenset(seen))


def _ref_from_edge_colors(vertex_count, triples):
    pairs = []
    red = set()
    for u, v, color in triples:
        pairs.append((u, v))
        if color == RED:
            red.add(edge_key(int(u), int(v)))
        elif color != BLUE:
            raise ValueError(f"unknown colour {color!r}")
    return ColoredGraph(_ref_from_edges(vertex_count, pairs), frozenset(red))


def _ref_host(n, edges):
    try:
        return _ref_from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _ref_was_colored(rows, consumed):
    return any(len(row) == 3 for row in rows[1:consumed])


def _ref_parse_graph(text):
    rows = _ref_significant_lines(text)
    n, edges, red, consumed = _ref_parse_header_and_edges(rows)
    if len(rows) != consumed:
        raise ParseError(f"unexpected trailing line: {' '.join(rows[consumed])!r}")
    g = _ref_host(n, edges)
    if _ref_was_colored(rows, consumed):
        return ColoredGraph(g, frozenset(red))
    return g


def _ref_parse_model(text):
    rows = _ref_significant_lines(text)
    n, edges, red, consumed = _ref_parse_header_and_edges(rows)
    if red or _ref_was_colored(rows, consumed):
        raise ParseError("model hosts are uncoloured")
    host = _ref_host(n, edges)
    parts = {}
    roots = {}
    for row in rows[consumed:]:
        if row[0] == "part" and len(row) >= 3 and row[1].endswith(":"):
            idx = _ref_parse_int(row[1][:-1], "part index")
            if idx in parts:
                raise ParseError(f"duplicate part {idx}")
            parts[idx] = tuple(_ref_parse_int(t, "part vertex") for t in row[2:])
        elif row[0] == "root" and len(row) == 3 and row[1].endswith(":"):
            idx = _ref_parse_int(row[1][:-1], "root index")
            if idx in roots:
                raise ParseError(f"duplicate root {idx}")
            roots[idx] = _ref_parse_int(row[2], "root vertex")
        else:
            raise ParseError(f"bad model line: {' '.join(row)!r}")
    if not parts:
        raise ParseError("model file has no parts")
    if sorted(parts) != list(range(len(parts))):
        raise ParseError("part indices must be 0..k-1")
    part_list = [parts[i] for i in range(len(parts))]
    for idx in roots:
        if idx not in parts:
            raise ParseError(f"root for unknown part {idx}")
    root_list = [roots.get(i, min(parts[i])) for i in range(len(parts))]
    try:
        return MinorModel.create(host, part_list, root_list)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _shown(edges):
    return sorted(map(repr, edges))  # repr tells 1 from 1.0 and True


def _canonical(result):
    if isinstance(result, Graph):
        return "Graph", result.vertex_count, _shown(result.edges)
    if isinstance(result, ColoredGraph):
        return "ColoredGraph", _canonical(result.graph), _shown(result.red)
    return "MinorModel", _canonical(result.host), result.parts, result.roots


def _outcome(parse, *args):
    try:
        return _canonical(parse(*args))
    except Exception as exc:  # the type and the words are what is compared
        return type(exc), str(exc)


ENDPOINTS = ["0", "1", "2", "3", "4", "5", "-1", "+2", "1_0", "x", "00", "٣"]
COLOURS = ["R", "B", "G", "r"]
WORDS = ENDPOINTS + COLOURS + ["part", "root", "0:", "1:", "2:", "-1:", ":"]
GAPS = [" ", "  ", "\t", "\xa0", "  "]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c"]


@st.composite
def _line(draw, words):
    toks = draw(words)
    text = "".join(tok + draw(st.sampled_from(GAPS)) for tok in toks).rstrip(" ")
    if draw(st.integers(0, 7)) == 0:
        text += " # " + draw(st.sampled_from(WORDS))
    return draw(st.sampled_from(["", " ", "\t"])) + text


def _edge_words():
    end = st.sampled_from(ENDPOINTS[:6])
    plain = st.tuples(end, end)
    coloured = st.tuples(end, end, st.sampled_from(COLOURS[:2]))
    odd = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)
    return st.one_of(plain, plain, coloured, coloured, odd).map(list)


def _tail_words():
    part = st.tuples(st.just("part"), st.sampled_from(["0:", "1:", "2:", "3:", "x:"]),
                     st.sampled_from(ENDPOINTS[:6]), st.sampled_from(ENDPOINTS[:6]))
    root = st.tuples(st.just("root"), st.sampled_from(["0:", "1:", "2:"]),
                     st.sampled_from(ENDPOINTS[:6]))
    odd = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)
    return st.one_of(part, part, root, odd).map(list)


@st.composite
def graph_texts(draw):
    """Header, edge lines and part/root lines, with blank lines, comments,
    odd whitespace and line ends; near-valid more often than not."""
    edges = draw(st.lists(_line(_edge_words()), max_size=7))
    tail = draw(st.lists(_line(_tail_words()), max_size=3))
    n = draw(st.sampled_from(["3", "4", "5", "6"] * 3 + ["0", "2", "-1", "+4", "1_0", "x",
                                                          str(io.MAX_INPUT_SIZE + 1)]))
    m = draw(st.sampled_from([str(len(edges)), str(len(edges)), str(len(edges) - 1),
                              str(len(edges) + 1), "-1", "-3", "0", "+1", "y",
                              str(io.MAX_INPUT_SIZE + 1)]))
    header = draw(st.sampled_from([[n, m]] * 6 + [[n], [n, m, "R"]]))
    lines = [" ".join(header)] + edges + tail
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "  ", "# note", "\t# x y"])))
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def mutated_files(draw):
    """format_graph / format_colored / format_model output, then mutated."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    g = Graph.from_edges(n, chosen)
    kind = draw(st.sampled_from(["plain", "coloured", "model"]))
    if kind == "plain":
        text = io.format_graph(g)
    elif kind == "coloured":
        colours = draw(st.lists(st.sampled_from([RED, BLUE]), min_size=len(chosen),
                                max_size=len(chosen)))
        text = io.format_colored(ColoredGraph.from_edge_colors(
            n, [(u, v, c) for (u, v), c in zip(chosen, colours)]))
    else:
        cut = draw(st.integers(1, n))
        text = io.format_model(MinorModel.create(g, [range(cut), range(cut, n)][: 1 + (cut < n)]))
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "swap", "token", "extra", "flip"]))
        toks = lines[i].split()
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token" and toks:
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(WORDS))
            lines[i] = " ".join(toks)
        elif op == "extra":
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(WORDS)))
            lines[i] = " ".join(toks)
        elif op == "flip" and len(toks) >= 2:
            lines[i] = " ".join([toks[1], toks[0]] + toks[2:])
    return draw(st.sampled_from(LINE_ENDS)).join(lines) + "\n"


@st.composite
def well_formed_files(draw):
    """Edge lines that all parse, in either orientation: a simple graph, or
    one with loops, duplicates in both orientations and endpoints out of
    range; plain or all coloured."""
    pair = st.tuples(st.integers(0, 5), st.integers(0, 5))
    if draw(st.booleans()):
        n = 6
        pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=9,
                              unique_by=lambda p: frozenset(p)))
    else:
        n = draw(st.integers(0, 6))
        pairs = draw(st.lists(pair, max_size=9))
    if draw(st.booleans()):
        rows = [f"{u} {v}" for u, v in pairs]
    else:
        rows = [f"{u} {v} {draw(st.sampled_from([RED, BLUE]))}" for u, v in pairs]
    return "\n".join([f"{n} {len(rows)}"] + rows) + "\n"


fuzz_texts = st.one_of(graph_texts(), mutated_files(), well_formed_files())


@settings(max_examples=150)
@given(fuzz_texts)
def test_parsers_match_the_per_row_reference(text):
    assert _outcome(io.parse_graph, text) == _outcome(_ref_parse_graph, text)
    assert _outcome(io.parse_model, text) == _outcome(_ref_parse_model, text)


@settings(max_examples=100)
@given(fuzz_texts)
def test_chunked_column_reader_matches_the_per_row_reference(text):
    # two-line chunks, so chunk ends fall inside the small fuzz files
    with mock.patch.object(io, "_CHUNK_LINES", 2):
        assert _outcome(io.parse_graph, text) == _outcome(_ref_parse_graph, text)
        assert _outcome(io.parse_model, text) == _outcome(_ref_parse_model, text)


def test_column_reader_spans_many_chunks():
    n = 3 * io._CHUNK_LINES
    triples = [(v, v + 1, RED if v % 3 else BLUE) for v in range(n)]
    text = f"{n + 1} {n}\n" + "".join(f"{u} {v} {c}\n" for u, v, c in triples)
    lines = io._significant_lines(text)
    assert io._edge_columns(lines, n) is not None  # no fallback to the row reader
    cg = io.parse_graph(text)
    assert cg == ColoredGraph.from_edge_colors(n + 1, triples)
    assert "sorted_edges" in vars(cg.graph)
    # an anomaly in the last chunk only hands the file to the row reader
    bad = text.replace(f"{n - 1} {n} R", f"{n - 1} {n} G")
    assert io._edge_columns(io._significant_lines(bad), n) is None
    with pytest.raises(ParseError, match="edge colour must be R or B, got 'G'"):
        io.parse_graph(bad)


@settings(max_examples=120)
@given(
    st.sampled_from([-2, -1, 0, 1, 3, 4, 6]),
    st.lists(st.one_of(
        st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
        st.sampled_from([("0", 1), (0, "1"), (0,), (0, 1, 2), None, (0.0, 1.0), (True, 2)]),
    ), max_size=8),
    st.sampled_from([list, tuple, iter]),
)
def test_from_edges_matches_the_in_order_loop(n, pairs, container):
    assert _outcome(Graph.from_edges, n, container(pairs)) == _outcome(
        _ref_from_edges, n, list(pairs)
    )


@settings(max_examples=120)
@given(
    st.sampled_from([-1, 0, 3, 5]),
    st.lists(st.one_of(
        st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.sampled_from([RED, BLUE])),
        st.sampled_from([(0, 1, "G"), ("0", 1, RED), (None, 1, RED), (0, 1), (0, 1, []),
                         (2.0, 1.0, RED), (True, 2, RED), (0.5, 1, RED)]),
    ), max_size=7),
)
def test_from_edge_colors_matches_the_in_order_loop(n, triples):
    assert _outcome(ColoredGraph.from_edge_colors, n, iter(triples)) == _outcome(
        _ref_from_edge_colors, n, triples
    )


def _not_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


@settings(max_examples=40)
@given(fuzz_texts)
def test_cli_answers_fuzzed_files_with_one_document(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    commands = [[name] for name in ("certify", "pipeline", "aux", "gh")]
    commands += [["oracle", kind] for kind in ("hadwiger", "tcl", "bip-hadwiger")]
    for command in commands:
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = main(command + [str(path)])
        assert code in (0, 2, 3), (command, out.getvalue())
        stdout = out.getvalue()
        assert stdout.endswith("\n") and "\n" not in stdout[:-1], stdout
        assert isinstance(json.loads(stdout, parse_constant=_not_json), dict)
