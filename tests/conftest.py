"""Shared helpers: independent re-derivations used to check the library.

Everything here is written the slow, obvious way on purpose — dict
adjacency, itertools permutations, Fraction arithmetic — so the fast
bitmask implementations are always compared against code that shares
nothing with them.
"""

from __future__ import annotations

import concurrent.futures
import random
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from kpham import (
    MAX_VERTICES,
    GraphFormatError,
    InvalidGraph,
    KPartiteGraph,
    from_edge_list,
    new_complete,
    write_graphs,
)


def naive_adjacency(k: int, n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(k * n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def naive_sigma(k: int, n: int, edges) -> float:
    """Minimum degree sum over nonadjacent cross-part pairs, by double loop."""
    adj = naive_adjacency(k, n, edges)
    best = float("inf")
    for u in range(k * n):
        for v in range(u + 1, k * n):
            if u // n == v // n or v in adj[u]:
                continue
            best = min(best, len(adj[u]) + len(adj[v]))
    return best


def naive_sigma_pair(k: int, n: int, edges) -> tuple[int, int] | None:
    """Lexicographically first nonadjacent cross-part pair whose degree sum
    equals naive_sigma, by double loop; None when there is no such pair."""
    adj = naive_adjacency(k, n, edges)
    best = naive_sigma(k, n, edges)
    for u in range(k * n):
        for v in range(u + 1, k * n):
            if u // n != v // n and v not in adj[u]:
                if len(adj[u]) + len(adj[v]) == best:
                    return (u, v)
    return None


def naive_adjacency_error(k: int, n: int, rows) -> InvalidGraph | None:
    """The InvalidGraph that KPartiteGraph(k, n, rows) must raise for rows of
    the right length, or None when it must accept them: rows in order, and in
    each row the range, self-loop, intra-part and then asymmetry test, one
    neighbour at a time in ascending order."""
    count = k * n
    for v, row in enumerate(rows):
        neighbours = [u for u in range(row.bit_length()) if row >> u & 1]
        if any(u >= count for u in neighbours):
            return InvalidGraph(f"vertex {v} has neighbors outside 0..{count - 1}")
        if v in neighbours:
            return InvalidGraph(f"vertex {v} has a self-loop")
        if any(u // n == v // n for u in neighbours):
            return InvalidGraph(f"vertex {v} has an intra-part neighbor")
        for u in neighbours:
            if not rows[u] >> v & 1:
                return InvalidGraph(f"asymmetric adjacency between {u} and {v}")
    return None


@st.composite
def adjacency_rows(draw) -> tuple[int, int, tuple[int, ...]]:
    """(k, n, rows) for any shape up to MAX_VERTICES: a random graph, then a
    few single-bit edits that may add a bit at or past k*n, a self-loop, an
    intra-part bit, or flip one bit so that the rows lose their symmetry."""
    k = draw(st.integers(2, 16))
    n = draw(st.integers(1, MAX_VERTICES // k))
    count = k * n
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    rows = [0] * count
    for u, v in host_edges(k, n):
        if rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, count - 1))
        kind = draw(st.sampled_from(["outside", "loop", "intra", "flip", "flip", "flip"]))
        if kind == "outside":
            rows[v] |= 1 << draw(st.sampled_from([count, count + 1, 63, 64, 70, 128, 200]))
        elif kind == "loop":
            rows[v] |= 1 << v
        elif kind == "intra":
            rows[v] |= 1 << draw(st.integers(v - v % n, v - v % n + n - 1))
        else:
            rows[v] ^= 1 << draw(st.integers(0, count - 1))
    return k, n, tuple(rows)


def naive_parse_graphs(text: str) -> list[tuple[int, int, set[tuple[int, int]]]]:
    """Every graph in the text as (k, n, edge set), line by line with a dict
    of neighbour sets; raises GraphFormatError as graphio.parse_graphs does."""

    def to_int(word: str, line_no: int) -> int:
        try:
            return int(word)
        except ValueError:
            raise GraphFormatError(line_no, f"not an integer: {word!r}") from None

    lines = text.split("\n")
    if lines[-1] == "":  # the text's final newline ends its last line
        lines.pop()
    graphs = []
    i = 0
    while i < len(lines):
        raw = lines[i].strip()
        i += 1
        if not raw or raw.startswith("#"):
            continue
        header_no = i
        words = raw.split()
        if words[0] != "kpartite" or len(words) != 4:
            raise GraphFormatError(header_no, "expected header 'kpartite <k> <n> <m>'")
        k, n, m = (to_int(word, header_no) for word in words[1:])
        if m < 0:
            raise GraphFormatError(header_no, "edge count may not be negative")
        if k * n > MAX_VERTICES:
            raise GraphFormatError(
                header_no, f"k*n={k * n} exceeds the bit-matrix cap {MAX_VERTICES}"
            )
        if k < 2:
            raise GraphFormatError(header_no, f"need at least 2 parts, got k={k}")
        if n < 1:
            raise GraphFormatError(header_no, f"need at least 1 vertex per part, got n={n}")
        neighbours: dict[int, set[int]] = {v: set() for v in range(k * n)}
        edges: set[tuple[int, int]] = set()
        while len(edges) < m:
            if i == len(lines):
                raise GraphFormatError(i, f"file ends after {len(edges)} of {m} edges")
            raw = lines[i].strip()
            i += 1
            if raw.startswith("#"):
                continue
            if not raw:
                raise GraphFormatError(i, f"blank line after {len(edges)} of {m} edges")
            words = raw.split()
            if len(words) != 2:
                raise GraphFormatError(i, "expected two endpoints")
            u = to_int(words[0], i)
            v = to_int(words[1], i)
            if u not in neighbours or v not in neighbours or u >= v:
                raise GraphFormatError(
                    i, f"endpoints must satisfy 0 <= u < v < {k * n}, got {u} {v}"
                )
            if u // n == v // n:
                raise GraphFormatError(i, f"{u} and {v} sit in the same part")
            if v in neighbours[u]:
                raise GraphFormatError(i, f"duplicate edge {u} {v}")
            neighbours[u].add(v)
            neighbours[v].add(u)
            edges.add((u, v))
        graphs.append((k, n, edges))
    return graphs


@st.composite
def graph_texts(draw) -> str:
    """Token soup in the shape of graph files: headers good and bad, edge
    lines good, bad and repeated, comments, blank lines, and spaces, tabs
    and carriage returns around and between the tokens."""
    pad = st.sampled_from(["", " ", "\t", "\r", " \r"])
    junk = st.sampled_from(["x", "#2", "+1", "1.0", "0x1", "-0", "kpartite", "1_0"])
    odd_size = st.sampled_from([-1, 0, 1, 9, 13, 1000000])

    def line(words) -> str:
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        return draw(pad) + sep.join(words) + draw(pad)

    lines = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)):
            k, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        else:
            k, n = draw(odd_size), draw(odd_size)
        m = draw(st.integers(-1, 6))
        header = ["kpartite", str(k), str(n), str(m)]
        kind = draw(st.sampled_from(["good"] * 6 + ["word", "short", "junk"]))
        if kind == "word":
            header[0] = draw(st.sampled_from(["partite", "KPARTITE", "#kpartite"]))
        elif kind == "short":
            header.pop()
        elif kind == "junk":
            header[draw(st.integers(1, 3))] = draw(junk)
        lines.append(line(header))
        host = host_edges(k, n) if 2 <= k <= 4 and 1 <= n <= 3 else [(0, 1)]
        fresh = iter(draw(st.permutations(host)))
        count = max(min(k * n, 12), 2)
        for _ in range(max(m + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)):
            kind = draw(st.sampled_from(["edge"] * 12 + ["wild", "repeat", "comment", "blank", "junk", "three"]))
            if kind == "edge":
                lines.append(line([str(v) for v in next(fresh, host[0])]))
            elif kind == "repeat" and len(lines) > 1:
                lines.append(lines[-1])
            elif kind == "comment":
                lines.append(draw(pad) + draw(st.sampled_from(["#", "# note", "#1 2"])))
            elif kind == "blank":
                lines.append(draw(pad))
            else:
                u = draw(st.integers(-1, count))
                words = [str(u), str(u + draw(st.integers(-1, 3)))]
                if kind == "junk":
                    words[draw(st.integers(0, 1))] = draw(junk)
                elif kind == "three":
                    words.append(draw(st.sampled_from(["1", "x"])))
                lines.append(line(words))
        lines.extend(draw(st.lists(st.sampled_from(["", "# after"]), max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def writer_texts(draw) -> str:
    """write_graphs output of 1-3 random graphs of up to MAX_VERTICES vertices,
    as is or with one edit: a bad token, a third token, a blank line, a
    comment, a repeated edge line, an edge out of range, inside a part or with
    its ends swapped, CRLF line ends, or the text cut at a line end with or
    without its newline."""
    graphs = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 8))
        n = draw(st.integers(1, MAX_VERTICES // k))
        host = host_edges(k, n)
        rng = random.Random(draw(st.integers(0, 2**32)))
        graphs.append(from_edge_list(k, n, rng.sample(host, rng.randint(0, len(host)))))
    lines = write_graphs(graphs).split("\n")
    kind = draw(st.sampled_from([
        "none", "token", "three", "blank", "comment", "repeat",
        "outside", "same-part", "swapped", "crlf", "cut", "cut-newline",
    ]))
    at = draw(st.integers(0, len(lines) - 1))
    edge_at = [i for i, line in enumerate(lines) if line and not line.startswith("kpartite")]
    if kind in ("token", "three", "repeat", "outside", "same-part", "swapped") and edge_at:
        i = draw(st.sampled_from(edge_at))
        header = next(line for line in reversed(lines[:i]) if line.startswith("kpartite"))
        k, n = map(int, header.split()[1:3])
        words = lines[i].split()
        u = int(words[0])
        if kind == "token":
            bad = st.sampled_from(["x", "+1", "07", "-0", "1.0", "64", "٣"])
            words[draw(st.integers(0, 1))] = draw(bad)
            lines[i] = " ".join(words)
        elif kind == "three":
            lines[i] += " 1"
        elif kind == "repeat":
            lines.insert(draw(st.sampled_from([i, i + 1])), lines[i])
        elif kind == "outside":
            lines[i] = f"{u} {k * n + draw(st.integers(0, 2))}"
        elif kind == "swapped":
            lines[i] = f"{words[1]} {u}"
        else:
            low = u - u % n
            lines[i] = f"{low} {low + 1}" if n > 1 else f"{u} {u}"
    elif kind == "blank":
        lines.insert(at, "")
    elif kind == "comment":
        lines.insert(at, "# note")
    text = "\n".join(lines)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind.startswith("cut"):
        text = "\n".join(lines[:at]) + ("\n" if kind == "cut-newline" else "")
    return text


def perm_hamiltonian(rows) -> bool:
    """Hamiltonicity by brute permutation; only sane for ~8 vertices."""
    n = len(rows)
    if n < 3:
        return False
    for perm in permutations(range(1, n)):
        seq = (0,) + perm
        if all(rows[seq[i]] >> seq[(i + 1) % n] & 1 for i in range(n)):
            return True
    return False


def host_edges(k: int, n: int) -> list[tuple[int, int]]:
    return new_complete(k, n).edges()


@st.composite
def partite_graphs(
    draw,
    min_k: int = 2,
    max_k: int = 4,
    min_n: int = 1,
    max_n: int = 3,
    min_edges: int = 0,
) -> KPartiteGraph:
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(min_n, max_n))
    host = host_edges(k, n)
    chosen = draw(
        st.lists(
            st.sampled_from(range(len(host))),
            unique=True,
            min_size=min(min_edges, len(host)),
            max_size=len(host),
        )
    )
    return from_edge_list(k, n, [host[i] for i in chosen])


def all_subsets_of_size(k: int, n: int, m: int):
    for combo in combinations(host_edges(k, n), m):
        yield from_edge_list(k, n, combo)


@pytest.fixture
def pool_widths(monkeypatch):
    """Replace concurrent.futures.ProcessPoolExecutor with an in-process
    stand-in, so pool sizing can be checked without starting a process.
    Returns a record whose widths list holds the max_workers value of each
    pool built and whose chunks list holds how many chunks each map call
    receives."""
    record = SimpleNamespace(widths=[], chunks=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record.chunks.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return record
