import pytest

from rbminor import io
from rbminor.errors import InstanceTooLarge, ParseError
from rbminor.graphs import (
    Bipartition,
    ColoredGraph,
    Graph,
    OddCycle,
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


def test_parse_errors():
    cases = [
        "",  # empty
        "3\n",  # short header
        "3 2\n0 1\n",  # missing edge line
        "2 1\n0 1 G\n",  # bad colour
        "3 2\n0 1 R\n1 2\n",  # mixed coloured/plain
        "2 1\n0 1\nextra\n",  # trailing junk
        "2 1\n0 2\n",  # endpoint out of range
        "x 1\n0 1\n",  # non-integer header
        "3 2\n0 1\n0 1\n",  # duplicate edge
    ]
    for text in cases:
        with pytest.raises(ParseError):
            io.parse_graph(text)


def test_model_parse_errors():
    base = "4 3\n0 1\n1 2\n2 3\n"
    cases = [
        base,  # no parts at all
        base + "part 0: 0 1\npart 0: 2\n",  # duplicate part
        base + "part 1: 0\n",  # indices must start at 0
        base + "part 0: 0\nroot 1: 0\n",  # root for unknown part
        base + "part 0: 0\nwhat 0: 0\n",  # unknown line
        "2 1\n0 1 R\npart 0: 0\n",  # coloured host
    ]
    for text in cases:
        with pytest.raises(ParseError):
            io.parse_model(text)


def test_expect_helpers():
    g = io.parse_graph("2 1\n0 1\n")
    cg = io.parse_graph("2 1\n0 1 B\n")
    assert io.expect_plain(g) is g
    assert io.expect_colored(cg) is cg
    with pytest.raises(ParseError):
        io.expect_plain(cg)
    with pytest.raises(ParseError):
        io.expect_colored(g)


def test_json_graph_roundtrip():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert io.graph_from_json(io.graph_json(g)) == g
    cg = ColoredGraph.from_edge_colors(3, [(0, 2, "R"), (1, 2, "B")])
    assert io.colored_from_json(io.colored_json(cg)) == cg
    with pytest.raises(ParseError):
        io.graph_from_json({"edges": []})


def test_input_size_cap():
    big = io.MAX_INPUT_SIZE + 1
    for text in (f"{big} 1\n0 1\n", f"3 {big}\n0 1\n"):
        with pytest.raises(InstanceTooLarge):
            io.parse_graph(text)
        with pytest.raises(InstanceTooLarge):
            io.parse_model(text + "part 0: 0\n")
    with pytest.raises(InstanceTooLarge):
        io.graph_from_json({"vertex_count": big, "edges": [[0, 1]]})
    with pytest.raises(InstanceTooLarge):
        io.colored_from_json({"vertex_count": big, "edges": [[0, 1, "R"]]})
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
