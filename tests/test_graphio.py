from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import graph_texts, naive_parse_graphs, partite_graphs, writer_texts
from kpham import (
    GraphFormatError,
    new_complete,
    parse_graph,
    parse_graphs,
    write_graph,
    write_graphs,
)


def test_write_golden():
    assert write_graph(new_complete(2, 2)) == "kpartite 2 2 4\n0 2\n0 3\n1 2\n1 3\n"


def test_parse_golden():
    g = parse_graph("kpartite 2 2 4\n0 2\n0 3\n1 2\n1 3\n")
    assert (g.k, g.n) == (2, 2)
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_comments_and_edge_order_are_free():
    text = "# a remark\nkpartite 2 2 2\n# between edges\n1 3\n0 2\n"
    g = parse_graph(text)
    assert g.edges() == [(0, 2), (1, 3)]


def test_multi_graph_round_trip():
    gs = [new_complete(2, 2), new_complete(3, 1)]
    text = write_graphs(gs)
    assert "\n\nkpartite" in text
    back = parse_graphs(text)
    assert [g.edges() for g in back] == [g.edges() for g in gs]
    assert [(g.k, g.n) for g in back] == [(2, 2), (3, 1)]


def test_zero_edge_graph():
    backs = parse_graphs("kpartite 2 2 0\n\nkpartite 2 1 1\n0 1\n")
    assert backs[0].edge_count == 0
    assert backs[1].edges() == [(0, 1)]


def test_empty_input():
    assert parse_graphs("") == []
    assert parse_graphs("# only a comment\n\n") == []


@settings(max_examples=100, deadline=None)
@given(partite_graphs())
def test_round_trip_any_graph(g):
    back = parse_graph(write_graph(g))
    assert back.adj == g.adj
    assert (back.k, back.n) == (g.k, g.n)
    # writing is canonical: a second pass reproduces the bytes
    assert write_graph(back) == write_graph(g)


def _error(text, line, message, label):
    """A parse-error case: the input, the 1-based line the error names, and
    its full message; the test id is the input, the line and a short label."""
    return pytest.param(text, line, message, id=f"{text}-{line}-{label}")


@pytest.mark.parametrize(
    ("text", "line", "message"),
    [
        _error("partite 2 2 0\n", 1, "expected header 'kpartite <k> <n> <m>'", "expected header"),
        _error("kpartite 2 2\n", 1, "expected header 'kpartite <k> <n> <m>'", "expected header"),
        _error("kpartite two 2 0\n", 1, "not an integer: 'two'", "not an integer"),
        _error("kpartite 2 2 -1\n", 1, "edge count may not be negative", "negative"),
        _error("kpartite 2 2 2\n0 2", 2, "file ends after 1 of 2 edges", "file ends after 1 of 2"),
        _error("kpartite 2 2 2\n0 2\n", 2, "file ends after 1 of 2 edges", "file ends after final newline"),
        _error("kpartite 2 2 2\n0 2\n\n1 3\n", 3, "blank line after 1 of 2 edges", "blank line after 1 of 2"),
        _error("kpartite 2 2 1\n0 2 3\n", 2, "expected two endpoints", "two endpoints"),
        _error("kpartite 2 2 1\n0 x\n", 2, "not an integer: 'x'", "not an integer"),
        _error("kpartite 2 2 1\n2 0\n", 2, "endpoints must satisfy 0 <= u < v < 4, got 2 0", "0 <= u < v < 4"),
        _error("kpartite 2 2 1\n0 4\n", 2, "endpoints must satisfy 0 <= u < v < 4, got 0 4", "0 <= u < v < 4"),
        _error("kpartite 2 2 1\n1 1\n", 2, "endpoints must satisfy 0 <= u < v < 4, got 1 1", "0 <= u < v < 4"),
        _error("kpartite 2 2 1\n0 1\n", 2, "0 and 1 sit in the same part", "same part"),
        _error("kpartite 2 2 2\n0 2\n0 2\n", 3, "duplicate edge 0 2", "duplicate edge 0 2"),
        _error("kpartite 1 2 0\n", 1, "need at least 2 parts, got k=1", "at least 2 parts"),
        _error("kpartite 9 9 0\n", 1, "k*n=81 exceeds the bit-matrix cap 64", "cap 64"),
        _error("kpartite 1 100 0\n", 1, "k*n=100 exceeds the bit-matrix cap 64", "cap before k"),
        _error("kpartite 2 0 0\n", 1, "need at least 1 vertex per part, got n=0", "at least 1 vertex"),
        _error("kpartite 2 2 2\r\n0 2\r\n0 2\r\n", 3, "duplicate edge 0 2", "crlf"),
        _error("kpartite 2 2 1\n0\t1\n", 2, "0 and 1 sit in the same part", "tab"),
        _error("kpartite 2 2 2\n0 2\n   # note\n0 2\n", 4, "duplicate edge 0 2", "indented comment"),
        _error("kpartite 2 2 1\n0 #2\n", 2, "not an integer: '#2'", "hash token"),
        _error("kpartite 2 2 2\n+1 3\n1 +3\n", 3, "duplicate edge 1 3", "plus sign"),
        _error("kpartite 2 2 1\n0 2\n\nkpartite 2 2 2\n1 3", 5, "file ends after 1 of 2 edges", "second graph ends"),
        _error("kpartite 2 2 1\n0 2\n\nkpartite 2 2 2\n1 3\n", 5, "file ends after 1 of 2 edges", "second graph newline"),
        _error("kpartite 1000000 1000000 1\nx y\n", 1, "k*n=1000000000000 exceeds the bit-matrix cap 64", "header before edges"),
        _error("kpartite 1 2 1\n0 1\n", 1, "need at least 2 parts, got k=1", "header before edge"),
    ],
)
def test_format_errors_carry_line_numbers(text, line, message):
    with pytest.raises(GraphFormatError) as exc_info:
        parse_graphs(text)
    assert exc_info.value.line == line
    assert exc_info.value.message == message
    assert str(exc_info.value) == f"line {line}: {message}"


def test_whitespace_variants_parse():
    text = "  kpartite\t2 2 2 \r\n\t# note\r\n+1\t3\r\n 0   2\r\n"
    assert parse_graph(text).edges() == [(0, 2), (1, 3)]


def assert_parses_like_naive(text):
    try:
        expected = naive_parse_graphs(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as exc_info:
            parse_graphs(text)
        assert (exc_info.value.line, str(exc_info.value)) == (exc.line, str(exc))
        return
    graphs = parse_graphs(text)
    assert [(g.k, g.n, set(g.edges())) for g in graphs] == expected


@settings(max_examples=300, deadline=None)
@given(graph_texts())
def test_matches_naive_parser(text):
    assert_parses_like_naive(text)


@settings(max_examples=300, deadline=None)
@given(writer_texts())
def test_writer_output_matches_naive_parser(text):
    # whole edge blocks in the writer's form, and blocks that must be handed
    # back to the line loop at their first line
    assert_parses_like_naive(text)


def test_error_context_in_later_graph():
    text = "kpartite 2 2 1\n0 2\n\nkpartite 2 2 1\n0 1\n"
    with pytest.raises(GraphFormatError) as exc_info:
        parse_graphs(text)
    assert exc_info.value.line == 5


def test_parse_graph_wants_exactly_one():
    with pytest.raises(GraphFormatError, match="no graph"):
        parse_graph("")
    two = write_graphs([new_complete(2, 2), new_complete(2, 2)])
    with pytest.raises(GraphFormatError, match="found 2"):
        parse_graph(two)
