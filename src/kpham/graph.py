"""Balanced k-partite graphs with dense bitmask adjacency.

Vertices are the integers 0..k*n-1 and part membership is positional:
vertex v belongs to part v // n, so each part occupies a contiguous id
block. Only cross-part edges are representable. Graphs are immutable
values; every "mutation" returns a fresh copy, and equality is adjacency
equality, so edge insertion order is never observable. A simple graph on
N >= 2 vertices is the n = 1 case, KPartiteGraph(N, 1, rows): each vertex
is its own part.

The adjacency matrix is stored as one Python int per vertex (bit j set
iff j is a neighbor), which keeps all hot operations word-parallel at
desk scale. MAX_VERTICES caps k*n.

The constructor makes one test per row against a per-shape forbidden mask
(every bit outside 0..k*n-1, plus the row's own part, which holds the vertex
itself), and checks symmetry on the whole matrix at once: it packs the rows
into one int of W bits per row (W the next power of two >= k*n), as
sum(map(lshift, rows, shifts)) with row v shifted up by v*W (rows masked to
the k*n vertex bits first when some row fails its mask test), transposes
that with log2(W) delta-swaps, and reads the first asymmetric pair off the
lowest set bit of packed & ~transposed. One cached layout per shape
(_layout) holds the vertex count, W, the forbidden masks, the row shifts and
the delta-swaps, so a construction makes one cache lookup for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, lshift
from typing import Iterable, Iterator

from .errors import InvalidGraph, TooLarge

MAX_VERTICES = 64

# Sentinel for the minimum cross-part degree sum over nonadjacent pairs when
# no such pair exists (complete multipartite). math.inf compares correctly
# against every finite bound.
SIGMA_INFINITY = math.inf


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def part_masks(k: int, n: int) -> tuple[int, ...]:
    """Bitmask of each part's contiguous vertex block."""
    block = (1 << n) - 1
    return tuple(block << (i * n) for i in range(k))


@lru_cache(maxsize=None)
def _layout(k: int, n: int) -> tuple:
    """The constructor's per-shape constants, after check_shape, which on a
    bad shape raises and leaves nothing cached: (count, width, forbidden,
    shifts, steps). count = k*n rows of width bits each are packed into one
    int, row v shifted up by shifts[v] = v*width.

    forbidden[v] is every bit outside 0..count-1 (a negative int) plus v's
    own part block, which holds v itself. steps are the (shift, mask)
    delta-swaps that transpose the packed matrix (bit r*width + c holds
    entry (r, c)): the step for bit j of the indices swaps every entry
    (r, c) whose r has bit j clear and c has it set with (r + j, c - j),
    which sits j*(width - 1) bits higher, and the steps for all j together
    swap r and c."""
    check_shape(k, n)
    count = k * n
    width = 1 << (count - 1).bit_length()
    steps = []
    for j in (1 << t for t in range(width.bit_length() - 1)):
        cols = sum(1 << c for c in range(width) if c & j)
        mask = sum(cols << (r * width) for r in range(width) if not r & j)
        steps.append((j * (width - 1), mask))
    forbidden = tuple(-1 << count | block for block in part_masks(k, n) for _ in range(n))
    return count, width, forbidden, tuple(range(0, count * width, width)), tuple(steps)


def check_shape(k: int, n: int) -> None:
    """Raise TooLarge if k*n passes MAX_VERTICES, else InvalidGraph for fewer
    than 2 parts or 1 vertex per part; callers run it before allocating."""
    if k * n > MAX_VERTICES:
        raise TooLarge(f"k*n={k * n} exceeds the bit-matrix cap {MAX_VERTICES}")
    if k < 2:
        raise InvalidGraph(f"need at least 2 parts, got k={k}")
    if n < 1:
        raise InvalidGraph(f"need at least 1 vertex per part, got n={n}")


@dataclass(frozen=True)
class GraphStats:
    """Degree-level summary used by all sufficient-condition checks.

    sigma is the minimum of degree(u) + degree(v) over nonadjacent pairs
    in distinct parts, or SIGMA_INFINITY when the graph is complete
    multipartite and no such pair exists. sigma_pair is the
    lexicographically first such pair (u < v) attaining sigma, or None
    exactly when sigma is SIGMA_INFINITY.
    """

    edge_count: int
    min_degree: int
    sigma: int | float
    sigma_pair: tuple[int, int] | None


@dataclass(frozen=True)
class KPartiteGraph:
    """Immutable n-balanced k-partite graph.

    adj[v] is the neighbor bitmask of vertex v. The constructor validates
    the whole contract (symmetry, no loops, no intra-part edges), so any
    held instance is structurally sound.

    One _layout lookup gives the shape's constants. Each row gets one test
    against its forbidden mask, and the rows are packed by shifted addition
    (their bits never overlap once each row is inside 0..k*n-1); the packed
    transpose (see the module docstring) then finds the first asymmetric
    bit, row v and column u: the pair an edge-by-edge scan of row v in
    ascending u would meet first. Errors name the first bad row, and within
    it the first of the range, self-loop, intra-part and asymmetry tests
    that fails; only that row runs them, to build the message. An asymmetry
    is reported as "asymmetric adjacency between {u} and {v}".
    """

    k: int
    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        count, width, forbidden, shifts, steps = _layout(self.k, self.n)
        if len(self.adj) != count:
            raise InvalidGraph(f"adjacency has {len(self.adj)} rows, expected {count}")
        clean = not any(map(and_, self.adj, forbidden))
        full = (1 << count) - 1
        # A row with bits outside 0..count-1 is masked before it is packed,
        # so that no bit spills into the next row's slot; the range test
        # below names it.
        rows = self.adj if clean else [row & full for row in self.adj]
        packed = sum(map(lshift, rows, shifts))
        transposed = packed
        for shift, mask in steps:
            swap = ((transposed >> shift) ^ transposed) & mask
            transposed ^= swap ^ (swap << shift)
        lonely = packed & ~transposed
        if clean and not lonely:
            return
        first = (lonely & -lonely).bit_length() - 1  # -1, in no row, if none
        bad = count
        if not clean:
            bad = next(v for v, (row, mask) in enumerate(zip(self.adj, forbidden)) if row & mask)
        v = min(bad, first // width if lonely else count)
        row = self.adj[v]
        if row & ~full:
            raise InvalidGraph(f"vertex {v} has neighbors outside 0..{count - 1}")
        if row & (1 << v):
            raise InvalidGraph(f"vertex {v} has a self-loop")
        if row & part_masks(self.k, self.n)[v // self.n]:
            raise InvalidGraph(f"vertex {v} has an intra-part neighbor")
        raise InvalidGraph(f"asymmetric adjacency between {first % width} and {v}")

    # ---- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.k * self.n

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, ascending."""
        out = []
        for u, row in enumerate(self.adj):
            for v in bits(row >> (u + 1)):
                out.append((u, u + 1 + v))
        return out


# ---- constructors and derived graphs ------------------------------------


def new_complete(k: int, n: int) -> KPartiteGraph:
    """The complete n-balanced k-partite graph: every cross-part pair joined."""
    check_shape(k, n)
    blocks = part_masks(k, n)
    full = (1 << (k * n)) - 1
    adj = tuple(full ^ blocks[v // n] for v in range(k * n))
    return KPartiteGraph(k, n, adj)


def from_edge_list(k: int, n: int, edges: Iterable[tuple[int, int]]) -> KPartiteGraph:
    """Build a graph from (u, v) pairs.

    Duplicates are collapsed. Rejects out-of-range ids, loops and
    intra-part pairs, in that order, naming the offending edge. Each edge
    gets one combined test, and only a failing edge is told apart.
    """
    check_shape(k, n)
    count = k * n
    rows = [0] * count
    for u, v in edges:
        if not (0 <= u < count and 0 <= v < count and u // n != v // n):
            if not (0 <= u < count and 0 <= v < count):
                raise InvalidGraph(f"edge ({u}, {v}) out of range for {count} vertices")
            if u == v:
                raise InvalidGraph(f"edge ({u}, {v}) is a self-loop")
            raise InvalidGraph(f"edge ({u}, {v}) joins two part-{u // n} vertices")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return KPartiteGraph(k, n, tuple(rows))


def remove_edges(
    g: KPartiteGraph, edges: Iterable[tuple[int, int]]
) -> tuple[KPartiteGraph, int]:
    """Copy of g with the listed edges removed.

    Absent edges are ignored; the second return value is the number of
    edges actually removed.
    """
    rows = list(g.adj)
    removed = 0
    for u, v in edges:
        if 0 <= u < g.num_vertices and 0 <= v < g.num_vertices and rows[u] & (1 << v):
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            removed += 1
    return KPartiteGraph(g.k, g.n, tuple(rows)), removed


def stats(g: KPartiteGraph) -> GraphStats:
    """Edge count, minimum degree, and the nonadjacent cross-part degree-sum
    minimum (SIGMA_INFINITY when the graph is complete multipartite) with
    the first pair attaining it."""
    degs = [row.bit_count() for row in g.adj]
    sigma: int | float = SIGMA_INFINITY
    sigma_pair = None
    count = g.num_vertices
    for u in range(count):
        # Nonadjacent cross-part partners above u: everything except u's own
        # part block, u's neighbors, and ids <= u.
        others = ((1 << count) - 1) ^ part_masks(g.k, g.n)[u // g.n] ^ g.adj[u]
        others &= ~((1 << (u + 1)) - 1)
        for v in bits(others):
            pair = degs[u] + degs[v]
            if pair < sigma:
                sigma, sigma_pair = pair, (u, v)
    return GraphStats(
        edge_count=sum(degs) // 2,
        min_degree=min(degs) if degs else 0,
        sigma=sigma,
        sigma_pair=sigma_pair,
    )
