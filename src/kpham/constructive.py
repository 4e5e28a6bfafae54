"""Constructive Hamilton-cycle solver for balanced k-partite graphs.

The entry point is solve(), which takes a graph meeting the edge threshold
and produces a Hamilton cycle by the route matching the instance shape:

* n == 1          edge bound implies the degree-sum condition; degree-sum
                  closure over all pairs at bound N
* k == 2          degree-sum closure over cross pairs at bound n + 1
* k >= 3, n >= 2  degree-sum closure over all pairs at bound N, complete
                  because the edge bound implies Chvatal's degree-sequence
                  condition (see _route)

solve_theorem11 runs the same routes on graphs one edge below the threshold
with every degree at least 2.

Each route is one cached record per shape (_route): the candidate pairs,
the bound, the start cycle and the two traces it may return. When the
closure runs out of admissible moves it raises ConstructionFailed;
_construct catches it in one place, falls back to exhaustive search,
returns the route's dead-end trace, which ends in SearchFallback, and logs
the reason and the instance at INFO, so the gap rate between guaranteed
hypotheses and realized constructions stays measurable.

Determinism contract: every choice follows a fixed order of vertex ids. The
closure joins absent start edges in start order, then pairs at their lowest
ends, then the lexicographically first pair (see _closure_cycle); a reroute
takes the lowest crossing index; and cycles are returned in canonical form.
So identical inputs always produce identical results.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .conditions import check_ore, edge_threshold
from .errors import ConstructionFailed, HypothesisNotMet, TooSmall
from .graph import KPartiteGraph, bits, part_masks
from .paths import canonical_cycle, validate_hamilton_path

logger = logging.getLogger(__name__)

# Branch tags recorded in SolveResult.trace.
BASE_N1 = "BaseN1"
BASE_K2 = "BaseK2"
BASE_N2 = "BaseN2"
LEMMA_CLOSURE = "LemmaClosure"
ORE_ROTATION = "OreRotation"
SEARCH_FALLBACK = "SearchFallback"

TRACE_TAGS = frozenset(
    {
        BASE_N1,
        BASE_K2,
        BASE_N2,
        LEMMA_CLOSURE,
        ORE_ROTATION,
        SEARCH_FALLBACK,
    }
)

# SolveResult.failure values.
FAIL_HYPOTHESIS = "HypothesisNotMet"
FAIL_TOO_SMALL = "TooSmall"
FAIL_NOT_HAMILTONIAN = "NotHamiltonian"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    cycle is a canonical Hamilton cycle or None; trace lists the branch
    tags in execution order; failure names the reason when cycle is None.
    """

    cycle: tuple[int, ...] | None
    trace: tuple[str, ...]
    failure: str | None

    def serialize(self) -> str:
        if self.cycle is not None:
            first = "cycle " + " ".join(map(str, self.cycle))
        else:
            first = f"none {self.failure}"
        second = ("trace " + ",".join(self.trace)).rstrip()
        return f"{first}\n{second}\n"


# =====================================================================
# path closure primitives
# =====================================================================


def _close(rows: Sequence[int], path: Sequence[int]) -> Sequence[int]:
    """Close a path into a cycle on the same vertex set.

    If the ends are adjacent the path itself is the cycle. Otherwise reroute
    through the first index i with path[0] ~ path[i] and path[-1] ~
    path[i-1]; raises ConstructionFailed when no index qualifies, which the
    end-degree bound of a closure unwind or close_hamilton_path rules out.
    """
    first, last = path[0], path[-1]
    if rows[first] >> last & 1:
        return path
    for i in range(2, len(path) - 1):
        if rows[first] >> path[i] & 1 and rows[last] >> path[i - 1] & 1:
            return path[:i] + path[i:][::-1]
    raise ConstructionFailed("no crossing pair despite the degree bound")


def _open_at(cycle: Sequence[int], u: int, v: int) -> Sequence[int] | None:
    """The Hamilton path from u to v left by dropping the cycle edge (u, v),
    or None when (u, v) is not an edge of the cycle."""
    i = cycle.index(u)
    if cycle[i - 1] == v:
        return cycle[i:] + cycle[:i]
    if cycle[(i + 1) % len(cycle)] == v:
        return cycle[i::-1] + cycle[:i:-1]
    return None


def close_hamilton_path(adj: Sequence[int], path: Sequence[int]) -> tuple[int, ...]:
    """Turn a Hamilton path whose end degrees sum to at least N into a
    Hamilton cycle.

    Raises TooSmall below 3 vertices, InvalidPath when the input is not a
    Hamilton path of the graph and HypothesisNotMet when the degree-sum
    precondition fails. With the precondition satisfied a crossing pair
    always exists: if none did, the two ends could have at most N-1
    neighbors between them.
    """
    rows = tuple(adj)
    if len(rows) < 3:
        raise TooSmall(f"a Hamilton cycle needs at least 3 vertices, got {len(rows)}")
    validate_hamilton_path(rows, path)
    end_sum = rows[path[0]].bit_count() + rows[path[-1]].bit_count()
    if end_sum < len(rows):
        raise HypothesisNotMet(f"end degree sum {end_sum} is below {len(rows)}")
    return canonical_cycle(_close(rows, list(path)))


# =====================================================================
# degree-sum closure (add virtual edges, build, unwind)
# =====================================================================
#
# Whenever a nonadjacent pair that we are allowed to join has a large
# enough degree sum, we can add the pair as a virtual edge without changing
# Hamiltonicity (Bondy & Chvatal): a cycle through the virtual edge leaves a
# Hamilton path whose ends met the degree bound at insertion time, and the
# crossing-pair reroute replaces the virtual edge with real ones. Unwinding
# the additions in reverse order carries a cycle of the closed graph back
# onto the original one.
#
# Adding edges only raises degrees, so a pair that qualifies stays
# qualified, and the full closure, the graph left once no pair qualifies,
# is the same for every join order (Bondy & Chvatal): the first join of one
# order missing from the other order's closed graph would still qualify
# there, so that graph was not closed. Any qualifying join is therefore a
# free choice. The closure aims its joins at one chosen Hamilton cycle of
# the host, the start cycle, and stops as soon as its last edge is present.
# It gives up only when no pair qualifies, and then the graph is the full
# closure with a start edge absent: the closure gives up on exactly the
# graphs whose full closure lacks a start edge, whatever the order.
#
# One routine serves all three closure routes, each started from the host
# cycle that visits the parts in turn (the start of _route). It uses only
# cross-part edges, so the joins stop well before the closure is complete.
# The n == 1 route and the multipartite route (n == 2 and general) may join
# any pair at bound N; at n == 1 the start is 0, 1, ..., N-1, and the
# degree-sum condition lets every nonadjacent pair join from the first
# step, so the closure always reaches it. The k == 2 route joins only cross
# pairs at bound n + 1, and its start is the alternating cycle of the
# complete bipartite graph: on a balanced bipartite graph a Hamilton path
# left by deleting a cross edge from a Hamilton cycle alternates parts, and
# ends with degree sum >= n + 1 always admit a crossing pair, so the unwind
# is safe at that lower bound.


def _closure_cycle(
    adj: Sequence[int],
    cand: Sequence[int],
    bound: int,
    start: Sequence[int],
    joins: list[tuple[int, int]] | None = None,
) -> tuple[int, ...]:
    """Close adj over the candidate pairs until start is a cycle of the
    closed graph, then unwind start onto adj.

    cand[u] masks the vertices row u may be joined to; it must be
    symmetric, and every edge of start must be a candidate pair. A pair
    qualifies when it is an open candidate pair whose degree sum reaches
    bound, and each step joins the first qualifying pair in this order:

    (A) an absent start edge, in start order;
    (B) a pair at an end of an absent start edge: the lowest such end
        first, then its lowest partner;
    (C) the lexicographically first pair over all rows. No row scanned in
        (B) holds one, so (C) scans the other rows in ascending order.

    The joins stop as soon as every edge of start is present: the unwind
    needs only that start is a Hamilton cycle of the closed graph. Only
    (A) joins a start edge, since an absent start edge that qualifies is
    taken there. start is then carried back by removing the added edges in
    reverse order and rerouting around each one it uses (_open_at finds u
    on the running cycle and tells whether v is beside it). Raises
    ConstructionFailed when no pair qualifies with an edge of start still
    absent, or when a reroute finds no crossing pair (see _close).

    (B) and (C) test a whole row at once. reach[d] masks the vertices of
    degree at least d; it is built at the first (B) or (C) step and then
    kept by two ORs per join, since a join raises two degrees by one. Row
    u's qualifying partners are cand[u] & ~rows[u] & reach[max(0, bound -
    deg[u])], and the lowest set bit is the partner an ascending scan of
    the row would meet first; each scanned row reads cand once.

    One pass over start finds the absent start edges, each seen from its
    later end; when there are none, start is the answer and no degree is
    counted. start is read, never changed, so callers may pass a shared
    tuple (the start of the per-shape _route). joins, when given, must be
    an empty list; it receives each join as it is made, so tests can
    compare the join order, a stall's included.
    """
    gaps = []
    prev = start[-1]
    for w in start:
        if not adj[w] >> prev & 1:
            gaps.append((prev, w))
        prev = w
    if not gaps:
        return canonical_cycle(start)
    rows = list(adj)
    count = len(rows)
    deg = list(map(int.bit_count, rows))
    reach: list[int] = []
    added = [] if joins is None else joins
    while gaps:
        for pair in gaps:
            if deg[pair[0]] + deg[pair[1]] >= bound:
                gaps.remove(pair)
                break
        else:
            if not reach:
                reach = [0] * (count + bound + 1)
                for w, d in enumerate(deg):
                    reach[d] |= 1 << w
                for d in range(count, -1, -1):
                    reach[d] |= reach[d + 1]
            ends = 0
            for u, v in gaps:
                ends |= 1 << u | 1 << v
            for u in chain(bits(ends), bits(((1 << count) - 1) ^ ends)):
                partners = cand[u] & ~rows[u] & reach[max(0, bound - deg[u])]
                if partners:
                    pair = u, next(bits(partners))
                    break
            else:
                raise ConstructionFailed("degree-sum closure did not complete")
        u, v = pair
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        if reach:
            reach[deg[u]] |= 1 << u
            reach[deg[v]] |= 1 << v
        added.append(pair)
    cycle = start
    for u, v in reversed(added):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        path = _open_at(cycle, u, v)
        if path is not None:
            cycle = _close(rows, path)
    return canonical_cycle(cycle)


@lru_cache(maxsize=None)
def _route(k: int, n: int) -> tuple:
    """The closure route for the shape (k, n), as one cached record
    (trace, dead_end_trace, cand, bound, start), the first match in this
    order:

    * n == 1: every pair may join at bound N; trace BaseN1, OreRotation.
    * k == 2: only cross pairs may join, at bound n + 1; trace BaseK2,
      LemmaClosure.
    * k >= 3, n >= 2: every pair may join at bound N; trace BaseN2,
      LemmaClosure at n == 2 and LemmaClosure alone otherwise.

    start is the cycle of the k-partite host that visits the parts in turn,
    0, n, 2n, ..., 1, n + 1, ...: it uses only cross-part edges, and at
    n == 1 it is 0, 1, ..., k-1. dead_end_trace is trace with its last tag
    replaced by SearchFallback: the trace when the closure raises
    ConstructionFailed and the search decides. The shape is not checked,
    since ore_build_cycle asks for the n == 1 route of a simple graph of
    any size.

    n == 1. solve() has required edge_threshold(k, 1) = C(k-1, 2) + 2
    edges, which is Theorem 2's bound at N = k: every nonadjacent pair sums
    to at least N, so the closure completes without ore_build_cycle's check.

    k == 2: the cross-pair closure at bound n + 1, which the edge
    threshold makes complete.

    At the threshold n^2 - n + 2 of the n^2 cross edges are present, so
    D <= n - 2 are missing. A vertex v misses m_v of them and has degree
    n - m_v. The two ends of a missing pair u, v miss at most D + 1 <= n - 1
    edges between them (the pair itself counts for both), so
    d(u) + d(v) >= 2n - (n - 1) = n + 1, and the pair joins at once.
    Degrees only grow while the closure runs, so every missing pair joins,
    the closed graph is the complete bipartite host, the alternating start
    cycle is present and the closure never raises.

    One edge short with every degree >= 2 (solve_theorem11), D = n - 1. A
    missing pair (u, v) qualifies at bound n + 1 unless all n - 1 missing
    edges touch u or v. If no missing pair qualified, every two missing
    edges would share an end; in a bipartite graph that makes them a star,
    whose centre has degree n - (n - 1) = 1 < 2. So one pair joins, then
    D <= n - 2 and every remaining pair joins as above.

    k >= 3, n >= 2: the all-pairs closure at bound N, which the edge
    threshold makes complete.

    At the threshold D <= (k-1)n - 2 cross edges are missing. A vertex v
    misses m_v of them, so d(v) = (k-1)n - m_v and the m_v sum to 2D. With
    the degrees sorted d_1 <= ... <= d_N, no i < N/2 has d_i <= i, with
    one exception:

    * i = 1: d(v) >= (k-1)n - D >= 2.
    * i = 2: two vertices of degree <= 2 would miss >= 2(k-1)n - 4 edges,
      but two vertices miss at most D + 1 <= (k-1)n - 1 between them, and
      (k-1)n >= 4.
    * 3 <= i <= (k-1)n - 3: i vertices of degree <= i miss
      >= i((k-1)n - i) >= 3(k-1)n - 9 > 2D edge ends when (k-1)n > 5.
      This covers every i < N/2 except i = 4 at (3,3).
    * (3,3), i = 4: all 8 missing edge ends sit on those four vertices, so
      d_5 = 6 >= N - 4.

    So Chvatal's degree-sequence condition holds (d_i <= i < N/2 implies
    d_{N-i} >= N - i), the closure at bound N is complete (Bondy &
    Chvatal), and the early-stopped closure reaches the host cycle and
    never raises. The sigma bound alone does not give this: 8694 (3,3)
    threshold graphs meet it with sigma = 8 < N.
    """
    start = tuple(p * n + i for i in range(n) for p in range(k))
    if k == 2 and n >= 2:
        part0, part1 = part_masks(2, n)
        cand, bound = (part1,) * n + (part0,) * n, n + 1
    else:
        full = (1 << k * n) - 1
        cand, bound = tuple(full ^ (1 << u) for u in range(k * n)), k * n
    head = (BASE_N1,) if n == 1 else (BASE_K2,) if k == 2 else (BASE_N2,) if n == 2 else ()
    trace = head + (ORE_ROTATION if n == 1 else LEMMA_CLOSURE,)
    return trace, head + (SEARCH_FALLBACK,), cand, bound, start


def ore_build_cycle(adj: Sequence[int]) -> tuple[int, ...]:
    """Build a Hamilton cycle in a graph satisfying the all-pairs degree-sum
    condition (every nonadjacent u, v has degree sum >= N).

    Under that condition every nonadjacent pair qualifies for the all-pairs
    closure at bound N from the first step, so the closure reaches the start
    cycle 0, 1, ..., N-1, and its unwind carries that cycle back onto adj.
    """
    ok, witness = check_ore(adj)
    if not ok:
        raise HypothesisNotMet(f"degree-sum condition fails at pair {witness}")
    _, _, cand, bound, start = _route(len(adj), 1)
    return _closure_cycle(adj, cand, bound, start)


# =====================================================================
# solve dispatch
# =====================================================================


def solve(g: KPartiteGraph) -> SolveResult:
    """Decide and construct a Hamilton cycle under the edge threshold.

    Returns a SolveResult whose cycle is present whenever the edge count
    meets edge_threshold(k, n) and (k, n) != (2, 1); below the threshold
    the result fails with HypothesisNotMet without running any search. The
    trace lists every branch taken, including SearchFallback when the
    closure raised ConstructionFailed (see _construct).
    """
    if (g.k, g.n) == (2, 1):
        return SolveResult(None, (), FAIL_TOO_SMALL)
    if g.edge_count < edge_threshold(g.k, g.n):
        return SolveResult(None, (), FAIL_HYPOTHESIS)
    return _construct(g)


def solve_theorem11(g: KPartiteGraph) -> SolveResult:
    """Extended solve admitting edge counts one below the threshold when the
    minimum degree is at least 2.

    One edge short it runs solve()'s route (_construct), and otherwise it
    returns solve(g). The closures are sound at any edge count (Bondy &
    Chvatal). One edge short they are complete at k == 2 (see _route) and,
    as follows, at k >= 3 once a = (k-1)n >= 8. D = a - 1 edges are
    missing, and as in _route's k >= 3 proof no i < N/2 has d_i <= i:

    * i = 1: the minimum degree is at least 2.
    * i = 2: two vertices of degree <= 2 miss >= 2(a - 2) - 1 > D distinct
      edges when a >= 5.
    * 3 <= i <= a - 3: i vertices of degree <= i carry >= i(a - i) >=
      3(a - 3) > 2D missing edge ends when a >= 8, and a >= 8 makes every
      i < N/2 at most a - 3.

    Of the k >= 3 shapes with a < 8, (3,1) has no one-short graph of
    minimum degree 2, and a census settles (3,2), (3,3), (4,2) and (4,1)
    to (8,1): the closure fails only on the 12 non-Hamiltonian (3,2) and
    the 10 non-Hamiltonian (5,1) graphs, which the search decides on at
    most 6 vertices.
    """
    if (
        (g.k, g.n) != (2, 1)
        and g.edge_count == edge_threshold(g.k, g.n) - 1
        and min(map(int.bit_count, g.adj)) >= 2
    ):
        return _construct(g)
    return solve(g)


def _construct(g: KPartiteGraph) -> SolveResult:
    """Run the closure route for g's shape (_route). This is the one place
    that catches ConstructionFailed; it finishes the instance with the
    search under the route's dead-end trace."""
    trace, dead_end_trace, cand, bound, start = _route(g.k, g.n)
    try:
        cyc = _closure_cycle(g.adj, cand, bound, start)
    except ConstructionFailed as exc:
        return _finish_with_search(g, dead_end_trace, str(exc))
    return SolveResult(cyc, trace, None)


def _finish_with_search(
    g: KPartiteGraph, trace: tuple[str, ...], reason: str
) -> SolveResult:
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "constructive gap: %s [k=%d n=%d m=%d edges=%s]",
            reason,
            g.k,
            g.n,
            g.edge_count,
            ";".join(f"{u}-{v}" for u, v in g.edges()),
        )
    found = _search_hamilton(g.adj)
    if found is None:
        return SolveResult(None, trace, FAIL_NOT_HAMILTONIAN)
    return SolveResult(canonical_cycle(found), trace, None)


# =====================================================================
# fallback search
# =====================================================================


def _search_hamilton(adj: Sequence[int]) -> list[int] | None:
    """Exhaustive depth-first Hamilton-cycle search, lowest-degree-first
    branching. Deliberately a separate implementation from the oracle's
    decision procedures so the two never share a blind spot."""
    rows = tuple(adj)
    n_vertices = len(rows)
    if n_vertices < 3:
        return None
    degs = [row.bit_count() for row in rows]
    if min(degs) < 2:
        return None
    order = {
        v: sorted(bits(rows[v]), key=lambda w: (degs[w], w)) for v in range(n_vertices)
    }
    full = (1 << n_vertices) - 1
    path = [0]

    def dive(visited: int) -> bool:
        cur = path[-1]
        if visited == full:
            return bool(rows[cur] & 1)
        remaining = full & ~visited
        for w in bits(remaining):
            if not rows[w] & (remaining | (1 << cur) | 1):
                return False
        for nxt in order[cur]:
            bit = 1 << nxt
            if visited & bit:
                continue
            path.append(nxt)
            if dive(visited | bit):
                return True
            path.pop()
        return False

    if dive(1):
        return path
    return None
