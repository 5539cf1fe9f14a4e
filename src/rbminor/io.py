"""Text parsing and formatting, and the CLI's JSON documents.

Graphs and models are read only from text.  JSON is written for every
payload; of JSON input, only the fields of a `verify` document are read.

Graph files: first significant line "n m", then m edge lines "u v" or
"u v R" / "u v B" (all edges coloured or none), 0-based vertex ids,
"#" starts a comment.  Model files append "part i: v v ..." and optional
"root i: v" lines after the edges.

Every parser refuses a vertex or edge count above MAX_INPUT_SIZE with
InstanceTooLarge before it builds anything of that size.

The edge lines are read column-wise first (_edge_columns), a chunk of
lines at a time so that the transient token list stays small: one split
of the chunk, the endpoint columns converted with map(int, ...), the row
widths and colours checked as sets.  That pass accepts exactly what the
per-row reader (_edge_rows) accepts; on any anomaly it hands the lines to
the per-row reader, which words every parse error.  A text with no "#"
skips the per-line comment cut.

Every file that format_graph, format_colored or format_model writes lists
its edges sorted, so the graph read back from it has its sort cache
filled (see graphs) and writes its JSON with no sort.  The parsers and the
JSON writers build one container per edge and make no reference cycle, so
they run with the cyclic collector paused (graphs._nogc).
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import compress, repeat
from operator import eq
from typing import Any

from .errors import InstanceTooLarge, ParseError
from .graphs import BLUE, RED, Bipartition, ColoredGraph, Graph, OddCycle, _nogc
from .models import MinorModel

MAX_INPUT_SIZE = 1_000_000
# edge lines split at a time by the column reader: its token list stays
# about a megabyte, however large the file
_CHUNK_LINES = 4096


def _check_size(vertex_count: int, edge_count: int) -> None:
    if max(vertex_count, edge_count) > MAX_INPUT_SIZE:
        raise InstanceTooLarge(
            f"{vertex_count} vertices and {edge_count} edges"
            f" (cap {MAX_INPUT_SIZE} each)"
        )


def _significant_lines(text: str) -> list[str]:
    """Non-blank lines with comments cut, each stripped but not yet split."""
    if "#" not in text:
        return list(filter(None, map(str.strip, text.splitlines())))
    return [s for s in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if s]


def _shown(line: str) -> str:
    return repr(" ".join(line.split()))


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected integer, got {tok!r}") from None


def _parse_header_and_edges(
    lines: list[str],
) -> tuple[int, list[tuple[int, int]], set[tuple[int, int]], bool, int]:
    """(n, edges in file order, normalised Red edges, coloured?, lines used)."""
    if not lines:
        raise ParseError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {' '.join(header)!r}")
    n = _parse_int(header[0], "vertex count")
    m = _parse_int(header[1], "edge count")
    _check_size(n, m)
    if m < 0:
        raise ParseError(f"negative edge count {m}")
    if len(lines) - 1 < m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    parsed = _edge_columns(lines, m) or _edge_rows(lines[1 : 1 + m])
    return (n, *parsed, 1 + m)


def _edge_columns(
    lines: list[str], m: int
) -> tuple[list[tuple[int, int]], set[tuple[int, int]], bool] | None:
    """Read the m edge lines after the header column-wise, _CHUNK_LINES
    lines at a time: one split of a chunk's lines joined by "#" (which no
    significant line contains), so line ends become "#" tokens.  None on
    any anomaly, which _edge_rows then words."""
    pairs: list[tuple[int, int]] = []
    red: set[tuple[int, int]] = set()
    stride = 0
    for start in range(1, 1 + m, _CHUNK_LINES):
        chunk = lines[start : min(start + _CHUNK_LINES, 1 + m)]
        tokens = " # ".join(chunk).split()
        width, rest = divmod(len(tokens) + 1, len(chunk))
        if rest or width not in (3, 4) or stride not in (0, width):
            return None  # some line is not exactly "u v" or exactly "u v c"
        stride = width
        if set(tokens[stride - 1 :: stride]) - {"#"}:
            return None
        try:
            read = list(zip(map(int, tokens[0::stride]), map(int, tokens[1::stride])))
        except ValueError:
            return None
        pairs += read
        if stride == 4:
            colors = tokens[2::4]
            if set(colors) - {RED, BLUE}:
                return None
            # a normalised Red pair is kept as is, so it is the graph's edge object
            reds = compress(read, map(eq, colors, repeat(RED)))
            red.update(p if p[0] < p[1] else (p[1], p[0]) for p in reds)
    return pairs, red, stride == 4


def _edge_rows(
    body: list[str],
) -> tuple[list[tuple[int, int]], set[tuple[int, int]], bool]:
    """The per-row reader: words every parse error of the edge lines."""
    edges: list[tuple[int, int]] = []
    red: set[tuple[int, int]] = set()
    colored = 0
    for line in body:
        row = line.split()
        if len(row) == 2:
            u, v = (_parse_int(t, "edge endpoint") for t in row)
        elif len(row) == 3:
            u, v = (_parse_int(t, "edge endpoint") for t in row[:2])
            if row[2] not in (RED, BLUE):
                raise ParseError(f"edge colour must be R or B, got {row[2]!r}")
            colored += 1
            if row[2] == RED:
                red.add((min(u, v), max(u, v)))
        else:
            raise ParseError(f"bad edge line: {_shown(line)}")
        edges.append((u, v))
    if colored not in (0, len(body)):
        raise ParseError("file mixes coloured and uncoloured edges")
    return edges, red, colored > 0


def _graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@_nogc
def parse_graph(text: str) -> Graph | ColoredGraph:
    """Parse a graph file, coloured or plain depending on the edge lines."""
    lines = _significant_lines(text)
    n, edges, red, colored, consumed = _parse_header_and_edges(lines)
    if len(lines) != consumed:
        raise ParseError(f"unexpected trailing line: {_shown(lines[consumed])}")
    g = _graph(n, edges)
    return ColoredGraph(g, frozenset(red)) if colored else g


def expect_plain(parsed: Graph | ColoredGraph) -> Graph:
    if isinstance(parsed, ColoredGraph):
        raise ParseError("expected an uncoloured graph, got a coloured one")
    return parsed


def expect_colored(parsed: Graph | ColoredGraph) -> ColoredGraph:
    if isinstance(parsed, Graph):
        raise ParseError("expected a coloured graph, got an uncoloured one")
    return parsed


def _model_of(host: Graph, lines: list[str]) -> MinorModel:
    """The model of host that the part/root lines describe."""
    parts: dict[int, tuple[int, ...]] = {}
    roots: dict[int, int] = {}
    for line in lines:
        row = line.split()
        if row[0] == "part" and len(row) >= 3 and row[1].endswith(":"):
            idx = _parse_int(row[1][:-1], "part index")
            if idx in parts:
                raise ParseError(f"duplicate part {idx}")
            parts[idx] = tuple(_parse_int(t, "part vertex") for t in row[2:])
        elif row[0] == "root" and len(row) == 3 and row[1].endswith(":"):
            idx = _parse_int(row[1][:-1], "root index")
            if idx in roots:
                raise ParseError(f"duplicate root {idx}")
            roots[idx] = _parse_int(row[2], "root vertex")
        else:
            raise ParseError(f"bad model line: {_shown(line)}")
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


@_nogc
def parse_model(text: str) -> MinorModel:
    """Parse a host graph followed by part/root lines."""
    lines = _significant_lines(text)
    n, edges, _, colored, consumed = _parse_header_and_edges(lines)
    if colored:
        raise ParseError("model hosts are uncoloured")
    return _model_of(_graph(n, edges), lines[consumed:])


@_nogc
def parse_model_or_graph(text: str) -> MinorModel | Graph:
    """Parse a model file, or else a plain graph file, reading valid text
    once.  Errors are worded by parse_graph and expect_plain: a bad
    part/root line, or a bad host under such lines, is a trailing line."""
    lines = _significant_lines(text)
    n, edges, _, colored, consumed = _parse_header_and_edges(lines)
    if not colored:
        with suppress(ParseError):
            g = _graph(n, edges)
            return g if len(lines) == consumed else _model_of(g, lines[consumed:])
    return expect_plain(parse_graph(text))


def format_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def format_colored(cg: ColoredGraph) -> str:
    lines = [f"{cg.graph.vertex_count} {cg.graph.edge_count}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in cg.colored_edges())
    return "\n".join(lines) + "\n"


def format_model(model: MinorModel) -> str:
    lines = [format_graph(model.host).rstrip("\n")]
    for i, part in enumerate(model.parts):
        lines.append(f"part {i}: " + " ".join(str(v) for v in part))
        lines.append(f"root {i}: {model.roots[i]}")
    return "\n".join(lines) + "\n"


# JSON payload writers (used by the CLI; stable key order throughout)


@_nogc
def graph_json(g: Graph) -> dict[str, Any]:
    return {
        "vertex_count": g.vertex_count,
        "edges": [[u, v] for u, v in g.sorted_edges],
    }


@_nogc
def colored_json(cg: ColoredGraph) -> dict[str, Any]:
    red = cg.red
    return {
        "vertex_count": cg.graph.vertex_count,
        "edges": [[u, v, RED if (u, v) in red else BLUE] for u, v in cg.graph.sorted_edges],
    }


@_nogc
def side_json(side: dict[int, int]) -> dict[str, str]:
    return {str(v): ("X", "Y")[s] for v, s in sorted(side.items())}


@_nogc
def bipartition_json(p: Bipartition) -> dict[str, Any]:
    return {"kind": "partition", "side": side_json(p.side)}


@_nogc
def odd_cycle_json(c: OddCycle) -> dict[str, Any]:
    return {"kind": "odd_cycle", "vertices": list(c.vertices)}


@_nogc
def dumps(payload: Any) -> str:
    """Canonical JSON: sorted keys, fixed separators.  Payloads hold no
    reference cycle, so the encoder skips its cycle check."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)


# verify document readers (graphs are read only from text)


def side_from_json(obj: Any) -> dict[int, int]:
    try:
        return {int(v): {"X": 0, "Y": 1}[s] for v, s in obj.items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad side map: {exc}") from None


def has_shape(value: Any, shape: Any) -> bool:
    """Whether decoded JSON matches a shape: a type (exact, so True is no
    int), [s] for a list of items of shape s, a tuple of shapes for a list
    of that length, or {key: shape} for an object with at least those keys."""
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(
            k in value and has_shape(value[k], sub) for k, sub in shape.items()
        )
    if isinstance(shape, list):
        return isinstance(value, list) and all(has_shape(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return isinstance(value, list) and len(value) == len(shape) and all(
            map(has_shape, value, shape)
        )
    return type(value) is shape
