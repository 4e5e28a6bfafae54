"""Ground-truth Hamiltonicity decisions and exhaustive threshold sweeps.

The oracle is deliberately independent of the constructive solver: it
shares no cycle-building code, so a bug in one cannot hide in the other.
Two decision procedures are provided:

* backtracking — anchored depth-first search with reachability pruning;
* dp — Held-Karp subset dynamic programming over endpoint bitmasks.

The default, "auto", runs backtracking first under a budget of
_BACKTRACK_BUDGET (4096) search nodes, at every size up to the cap.
Backtracking that finishes inside the budget is a complete search; only
when the budget runs out does Held-Karp decide. Threshold instances are
found in tens to hundreds of nodes, while the DP walks every reachable
(subset, end) state. The budget bounds the worst case: refuting a 16-vertex
graph can take plain backtracking over a million nodes, and "auto" pays the
DP plus 4096 spent nodes instead.

enumerate_threshold_sweep() runs the oracle (and, at or above the edge
threshold, the solver) over every host-edge subset of a given size range:
sizes ascend, and within a size subsets come in itertools.combinations
order. run_chunks() cuts that sequence into index ranges, one per worker
process, and sums the per-range tallies in index order, so the summary is
byte-identical for any worker count.

Each instance, in the sweep and in extremal's fault trials alike, is the
complete host less its missing edges, built by one _Host per index range.
A "yes" is an oracle cycle: one the search built on that instance, or, at
or above the threshold, one it found on an earlier instance of the same
range and carried forward, which paths.is_hamilton_cycle accepts on this
one. Neighbouring instances share all but a few edges, so one cycle
certifies many; the (3,3) threshold sweep searches 221 of its 20 854
instances. Every "no" comes from the search.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Iterable, Sequence

from .conditions import edge_threshold
from .constructive import SEARCH_FALLBACK, solve
from .errors import InvalidGraph, TooLarge
from .graph import KPartiteGraph, bits, check_shape, new_complete
from .paths import canonical_cycle, is_hamilton_cycle

ORACLE_VERTEX_CAP = 16
_BACKTRACK_BUDGET = 4096
HOST_EDGE_CAP = 28
_CARRIED_CYCLES = 32


@dataclass(frozen=True)
class OracleAnswer:
    hamiltonian: bool
    cycle: tuple[int, ...] | None
    method: str
    nodes_expanded: int


def is_hamiltonian(
    graph: KPartiteGraph | Sequence[int],
    method: str = "auto",
    carried: tuple[int, ...] | None = None,
) -> OracleAnswer:
    """Decide Hamiltonicity exactly, returning a witness cycle when one
    exists.

    Accepts a partite graph or raw adjacency rows. Raw rows are validated
    as the n = 1 partite graph KPartiteGraph(len(rows), 1, rows), so rows
    that are not a simple undirected graph on 0..len(rows)-1 (a bit out of
    range, a self-loop, an asymmetric pair) raise its InvalidGraph. method
    is "auto", "backtracking", or "dp". "auto" runs backtracking under a
    budget of _BACKTRACK_BUDGET search nodes and falls back to dp only when
    the budget runs out; the other two run their procedure unbounded. The
    answer's method names the procedure that decided (never "auto"), and
    nodes_expanded counts the nodes of every procedure that ran, spent
    budget included. Raises TooLarge past ORACLE_VERTEX_CAP vertices: the
    procedures are exponential and the cap keeps misuse loud.

    carried, when given, is a cycle an earlier call returned. If
    paths.is_hamilton_cycle accepts it on graph, the answer is "yes" with
    that cycle, method "carried" and 0 nodes; otherwise the search runs as
    above. A "no" always comes from the search.
    """
    raw = not isinstance(graph, KPartiteGraph)
    rows = tuple(graph) if raw else graph.adj
    n_vertices = len(rows)
    if n_vertices > ORACLE_VERTEX_CAP:
        raise TooLarge(
            f"{n_vertices} vertices exceeds the oracle cap of {ORACLE_VERTEX_CAP}"
        )
    if raw:
        # A simple graph is the n = 1 partite graph; its constructor needs
        # two parts, so a lone vertex is checked here.
        if n_vertices > 1:
            KPartiteGraph(n_vertices, 1, rows)
        elif any(rows):
            what = "a self-loop" if rows == (1,) else "neighbors outside 0..0"
            raise InvalidGraph(f"vertex 0 has {what}")
    if method not in ("auto", "backtracking", "dp"):
        raise ValueError(f"unknown oracle method {method!r}")
    if carried is not None and is_hamilton_cycle(rows, carried):
        return OracleAnswer(True, carried, "carried", 0)
    decided_by = "dp" if method == "dp" else "backtracking"

    if n_vertices < 3 or min(row.bit_count() for row in rows) < 2:
        return OracleAnswer(False, None, decided_by, 0)
    full = (1 << n_vertices) - 1
    if _reach(rows, 0, full) != full:
        return OracleAnswer(False, None, decided_by, 0)
    if method == "dp":
        cycle, nodes = _held_karp(rows)
    else:
        budget = _BACKTRACK_BUDGET if method == "auto" else None
        try:
            cycle, nodes = _backtrack(rows, budget)
        except _BudgetExhausted:
            cycle, nodes = _held_karp(rows)
            nodes += _BACKTRACK_BUDGET
            decided_by = "dp"
    if cycle is None:
        return OracleAnswer(False, None, decided_by, nodes)
    return OracleAnswer(True, canonical_cycle(cycle), decided_by, nodes)


def _reach(rows: tuple[int, ...], start: int, allowed: int) -> int:
    """Mask of the vertices reachable from start through allowed ones."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


class _BudgetExhausted(Exception):
    """Backtracking spent its whole node budget; the question is still open."""


def _backtrack(
    rows: tuple[int, ...], budget: int | None = None
) -> tuple[list[int] | None, int]:
    """Complete search, or _BudgetExhausted once it would expand more than
    budget nodes (None: unbounded)."""
    n_vertices = len(rows)
    full = (1 << n_vertices) - 1
    path = [0]
    nodes = 0

    def dive(visited: int) -> bool:
        nonlocal nodes
        if nodes == budget:
            raise _BudgetExhausted
        nodes += 1
        cur = path[-1]
        if visited == full:
            return bool(rows[cur] & 1)
        remaining = full & ~visited
        avail = remaining | (1 << cur) | 1
        for w in bits(remaining):
            if (rows[w] & avail).bit_count() < 2:
                return False
        if remaining & ~_reach(rows, cur, remaining | (1 << cur)):
            return False
        for w in bits(rows[cur] & remaining):
            path.append(w)
            if dive(visited | (1 << w)):
                return True
            path.pop()
        return False

    if dive(1):
        return path, nodes
    return None, nodes


def _held_karp(rows: tuple[int, ...]) -> tuple[list[int] | None, int]:
    n_vertices = len(rows)
    size = 1 << n_vertices
    full = size - 1
    dp = [0] * size
    dp[1] = 1  # the trivial path sitting at vertex 0
    nodes = 0
    for mask in range(1, size, 2):
        ends = dp[mask]
        if not ends:
            continue
        for e in bits(ends):
            nodes += 1
            for w in bits(rows[e] & ~mask):
                dp[mask | (1 << w)] |= 1 << w
    finals = dp[full] & rows[0] & ~1
    if not finals:
        return None, nodes
    # Walk back from the lowest closing end: each set bit of dp[mask] has a
    # predecessor, so next() never runs dry.
    cur = next(bits(finals))
    seq = [cur]
    mask = full
    while mask != (1 << cur) | 1:
        mask &= ~(1 << cur)
        cur = next(bits(dp[mask] & rows[cur]))
        seq.append(cur)
    seq.append(0)
    seq.reverse()
    return seq, nodes


# =====================================================================
# host instances and the exhaustive sweep over host-edge subsets
# =====================================================================


@dataclass(frozen=True)
class Counterexample:
    """One instance where solver and oracle did not agree."""

    edges: tuple[tuple[int, int], ...]
    oracle_hamiltonian: bool
    solver_failure: str | None


@dataclass(frozen=True)
class EnumerationSummary:
    k: int
    n: int
    min_edges: int
    total: int
    hamiltonian: int
    non_hamiltonian: int
    solver_agreements: int
    solver_fallbacks: int
    counterexamples: tuple[Counterexample, ...]
    branch_tags: tuple[tuple[str, int], ...]


class _Host:
    """The complete host of a shape, its edges numbered in edges() order,
    and the oracle cycles carried between instances built from it, for
    _sweep_chunk and extremal._fault_chunk.

    instance(missing) is the host rows with the missing ids' edges cleared;
    the KPartiteGraph constructor checks them as it checks any graph.

    decide(g, missing, carry) is is_hamiltonian's answer on that instance.
    Without carry (below the threshold) it searches. With carry it offers
    the most recently useful carried cycle none of whose host-edge ids,
    closing edge included, is missing: a cycle of the host lies in the
    instance exactly then, so paths rejects no offered cycle, and the
    search runs only when none fits. The cycle that decides "yes" becomes
    the most recently useful; at most _CARRIED_CYCLES, all from the
    oracle, are kept.
    """

    def __init__(self, k: int, n: int) -> None:
        host = new_complete(k, n)
        self.k, self.n = k, n
        self.edges, self.rows = host.edges(), host.adj
        self._edge_id = {edge: i for i, edge in enumerate(self.edges)}
        # cycle -> its host-edge ids, least recently useful first
        self.carried: dict[tuple[int, ...], frozenset[int]] = {}

    def instance(self, missing: Iterable[int]) -> KPartiteGraph:
        rows = list(self.rows)
        for i in missing:
            u, v = self.edges[i]
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        return KPartiteGraph(self.k, self.n, tuple(rows))

    def decide(
        self, g: KPartiteGraph, missing: Iterable[int], carry: bool
    ) -> OracleAnswer:
        if not carry:
            return is_hamiltonian(g)
        carried = self.carried
        for fit, ids in reversed(carried.items()):
            if ids.isdisjoint(missing):
                break
        else:
            fit = None
        answer = is_hamiltonian(g, carried=fit)
        cycle = answer.cycle
        # Nothing moves when the deciding cycle is already the most recent.
        if cycle is not None and cycle is not next(reversed(carried), None):
            pairs = zip(cycle, cycle[1:] + cycle[:1])
            edge_id = self._edge_id
            carried[cycle] = carried.pop(cycle, None) or frozenset(
                [edge_id[(u, v) if u < v else (v, u)] for u, v in pairs]
            )
            if len(carried) > _CARRIED_CYCLES:
                del carried[next(iter(carried))]
        return answer


def _sweep_chunk(
    args: tuple[int, int, int, int, int],
) -> tuple[int, int, int, int, list[Counterexample], Counter[str]]:
    """Process flattened sweep indices [lo, hi). Sizes ascend from
    min_edges; within a size, subsets come in itertools.combinations order
    over the host-edge ids. Each instance is the host less the ids not
    chosen, decided by the chunk's _Host, which carries oracle cycles at or
    above the threshold only.
    """
    k, n, min_edges, lo, hi = args
    host = _Host(k, n)
    n_edges = len(host.edges)
    every_id = frozenset(range(n_edges))
    # solve() owes a cycle at the threshold on every shape but (2, 1), a
    # single edge; there no instance reaches the solver.
    threshold = edge_threshold(k, n) if (k, n) != (2, 1) else n_edges + 1
    subsets = chain.from_iterable(
        combinations(range(n_edges), size) for size in range(min_edges, n_edges + 1)
    )

    ham = agreements = fallbacks = 0
    records: list[Counterexample] = []
    traces: Counter[tuple[str, ...]] = Counter()
    for chosen in islice(subsets, lo, hi):
        missing = every_id.difference(chosen)
        g = host.instance(missing)
        at_threshold = len(chosen) >= threshold
        answer = host.decide(g, missing, at_threshold)
        ham += answer.hamiltonian
        if at_threshold:
            result = solve(g)
            traces[result.trace] += 1
            valid = result.cycle is not None and is_hamilton_cycle(g.adj, result.cycle)
            if valid and answer.hamiltonian:
                agreements += 1
            else:
                failure = result.failure
                if result.cycle is not None and not valid:
                    failure = "InvalidCycle"
                edges = tuple(host.edges[i] for i in chosen)
                records.append(Counterexample(edges, answer.hamiltonian, failure))
    tags: Counter[str] = Counter()
    for trace, count in traces.items():
        tags.update(dict.fromkeys(trace, count))
        if SEARCH_FALLBACK in trace:
            fallbacks += count
    return ham, hi - lo - ham, agreements, fallbacks, records, tags


def run_chunks(fn: Callable, head: tuple, total: int, jobs: int) -> tuple:
    """Cut the index range [0, total) into max(1, min(jobs, total, CPU
    count)) near-equal ranges, call fn((*head, lo, hi)) on each, and return
    the element-wise sum of the tuples it returns, taken in range order:
    integers add, lists concatenate and Counters merge. Shared with
    extremal.

    Raises ValueError when jobs < 1. One range runs in this process; two or
    more go to a process pool with one worker per range, so a large jobs
    value forks no more workers than there are CPUs or indices. fn must be
    a module-level function, since workers receive it by name.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    parts = max(1, min(jobs, total, os.cpu_count() or 1))
    chunks = [
        (*head, total * i // parts, total * (i + 1) // parts) for i in range(parts)
    ]
    if parts == 1:
        return fn(chunks[0])
    # Imported here because the pool machinery adds ~2 MB to every process
    # that loads it, and only runs with more than one range use it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=parts) as pool:
        tallies = list(pool.map(fn, chunks))
    return tuple(sum(column[1:], column[0]) for column in zip(*tallies))


def enumerate_threshold_sweep(
    k: int,
    n: int,
    min_edges: int | None = None,
    jobs: int = 1,
) -> EnumerationSummary:
    """Run oracle and solver over every host-edge subset with at least
    min_edges edges (default: the threshold), and summarize.

    The solver runs only on instances at or above the threshold, where it
    owes an answer (never at (2, 1), see solve()); disagreements with the
    oracle are returned as counterexamples (the expected count is zero), in
    sweep order: sizes ascending, then itertools.combinations order over the
    host edges.
    The oracle's verdict on an instance is "yes" when its search builds a
    cycle there or, at or above the threshold only, when a cycle it found
    on an earlier instance of the same index range passes
    paths.is_hamilton_cycle there; it is "no" only when the search finds
    none (see _Host).
    The sweep runs as max(1, min(jobs, instances, CPU count)) index
    ranges; two or more run in a process pool, one worker each (see
    run_chunks).
    Raises TooLarge when the host has more than HOST_EDGE_CAP edges, since
    the subset space doubles with each extra edge.
    """
    check_shape(k, n)
    host_count = comb(k, 2) * n * n
    if host_count > HOST_EDGE_CAP:
        raise TooLarge(
            f"host has {host_count} edges; sweeps are capped at {HOST_EDGE_CAP}"
        )
    if min_edges is None:
        min_edges = edge_threshold(k, n)
    min_edges = max(0, min_edges)
    total = sum(comb(host_count, m) for m in range(min_edges, host_count + 1))
    ham, non_ham, agreements, fallbacks, records, tags = run_chunks(
        _sweep_chunk, (k, n, min_edges), total, jobs
    )
    return EnumerationSummary(
        k=k,
        n=n,
        min_edges=min_edges,
        total=total,
        hamiltonian=ham,
        non_hamiltonian=non_ham,
        solver_agreements=agreements,
        solver_fallbacks=fallbacks,
        counterexamples=tuple(records),
        branch_tags=tuple(sorted(tags.items())),
    )
