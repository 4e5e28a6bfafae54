"""Plain-text graph serialization.

One graph is a header line followed by one line per edge:

    kpartite <k> <n> <m>
    <u> <v>          (m lines, 0 <= u < v < k*n, cross-part only)

Full-line comments start with '#'. Files may hold several graphs separated
by one or more blank lines. Parsing is strict: every violation names the
1-based line it happened on, and writing always emits edges in ascending
order with a trailing newline, so write o parse round-trips bytes exactly.

Parsing is one pass: each header's shape is checked (graph.check_shape) on
its own line before anything is allocated or any edge line read, and each
edge is checked once and ORed straight into the adjacency rows that the
KPartiteGraph constructor then validates.

Edge blocks as the writer prints them are read as one unit: after a header
with m > 0, each of the next m lines is split at its first space and both
halves are looked up among the vertex ids as the writer prints them; the
edges are ORed into the rows, and a distinct-edge bit count and the
constructor then check the whole block. Any line not of that form
(comments, tabs, CR, signs, leading zeros, a short file), an edge out of
range or with u >= v, a repeat or an intra-part edge hands the block back
to the line loop at its first line, which reads it as above and is the
only place that builds an error, so messages and line numbers do not
depend on which path ran.
"""

from __future__ import annotations

from itertools import islice, repeat

from .errors import GraphFormatError, InvalidGraph, TooLarge
from .graph import MAX_VERTICES, KPartiteGraph, check_shape

HEADER_WORD = "kpartite"


# Each vertex id as the writer prints it (no sign, padding or leading zero),
# with its bit.
_IDS = {str(v): (v, 1 << v) for v in range(MAX_VERTICES)}


def _read_block(k: int, n: int, block: list[str], m: int) -> KPartiteGraph | None:
    """The graph whose m edges are the lines of block, when every line is
    "<u> <v>" as the writer prints it and the edges are distinct, in range
    and cross-part; None otherwise, and the line loop then reads the block
    and names the first bad line."""
    count = k * n
    rows = [0] * count
    try:
        for head, _, tail in map(str.partition, block, repeat(" ")):
            u, u_bit = _IDS[head]
            v, v_bit = _IDS[tail]
            if not u < v < count:
                return None
            rows[u] |= v_bit
            rows[v] |= u_bit
    except KeyError:  # a line not in the writer's form
        return None
    # A block cut short or a repeated edge leaves fewer than 2m bits.
    if sum(map(int.bit_count, rows)) != 2 * m:
        return None
    try:
        return KPartiteGraph(k, n, tuple(rows))
    except InvalidGraph:  # a same-part edge
        return None


def _ints(tokens: list[str], line_no: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise GraphFormatError(line_no, f"not an integer: {tok!r}") from None
    return out


def parse_graphs(text: str) -> list[KPartiteGraph]:
    """Parse every graph in the text, in order of appearance. A final
    newline ends the last line; it does not start an empty one."""
    lines = text.removesuffix("\n").split("\n")
    graphs: list[KPartiteGraph] = []
    # The graph being read: shape, edge count m, edges read so far, rows.
    k = n = m = got = count = 0
    rows: list[int] = []
    numbered = enumerate(lines, 1)
    for line_no, line in numbered:
        tokens = line.split()
        if tokens and tokens[0].startswith("#"):
            continue
        if got < m:
            if not tokens:
                raise GraphFormatError(line_no, f"blank line after {got} of {m} edges")
            if len(tokens) != 2:
                raise GraphFormatError(line_no, "expected two endpoints")
            u, v = _ints(tokens, line_no)
            if not 0 <= u < v < count:
                raise GraphFormatError(
                    line_no, f"endpoints must satisfy 0 <= u < v < {count}, got {u} {v}"
                )
            if u // n == v // n:
                raise GraphFormatError(line_no, f"{u} and {v} sit in the same part")
            if rows[u] >> v & 1:
                raise GraphFormatError(line_no, f"duplicate edge {u} {v}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            got += 1
            if got == m:
                graphs.append(KPartiteGraph(k, n, tuple(rows)))
            continue
        if not tokens:
            continue
        if tokens[0] != HEADER_WORD or len(tokens) != 4:
            raise GraphFormatError(line_no, f"expected header '{HEADER_WORD} <k> <n> <m>'")
        k, n, m = _ints(tokens[1:], line_no)
        if m < 0:
            raise GraphFormatError(line_no, "edge count may not be negative")
        try:
            check_shape(k, n)
        except (InvalidGraph, TooLarge) as exc:
            raise GraphFormatError(line_no, str(exc)) from None
        count = k * n
        rows = [0] * count
        got = 0
        if m == 0:
            graphs.append(KPartiteGraph(k, n, tuple(rows)))
            continue
        g = _read_block(k, n, lines[line_no : line_no + m], m)
        if g is not None:
            graphs.append(g)
            got = m
            next(islice(numbered, m - 1, None))  # step past the block's m lines
    if got < m:
        raise GraphFormatError(len(lines), f"file ends after {got} of {m} edges")
    return graphs


def parse_graph(text: str) -> KPartiteGraph:
    """Parse exactly one graph."""
    graphs = parse_graphs(text)
    if not graphs:
        raise GraphFormatError(1, "no graph found")
    if len(graphs) > 1:
        raise GraphFormatError(1, f"expected one graph, found {len(graphs)}")
    return graphs[0]


def write_graph(g: KPartiteGraph) -> str:
    edges = g.edges()
    lines = [f"{HEADER_WORD} {g.k} {g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def write_graphs(graphs: list[KPartiteGraph]) -> str:
    return "\n".join(write_graph(g) for g in graphs)
