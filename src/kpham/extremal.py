"""Sharpness witnesses and random edge-fault trials.

tight_non_hamiltonian() builds the extremal graph sitting one edge below
the threshold: strip every host edge at vertex 0 except one, leaving a
degree-1 vertex, so no cycle exists despite the near-maximal edge count.

fault_tolerance_trial() deletes edges from the complete host — randomly or
exhaustively — and reports how many instances stay Hamiltonian. Within the
deletion budget (k-1)n - 2 the edge count stays at or above the threshold,
so the solver answers and the oracle cross-checks it; past the budget only
the oracle can decide, and the caller must opt in explicitly. Each trial
is the host less its deleted edges, built and decided by oracle._Host as
in the sweep: at or above the threshold the cross-check carries oracle
cycles between the trials of one index range; below it, nothing.

Randomness: trial i samples its deleted host-edge ids from
random.Random(seed + i), Python's mt19937 generator, so any trial range is
reproducible independently of worker count or execution order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .conditions import edge_threshold
from .constructive import SEARCH_FALLBACK, solve
from .errors import BudgetExceeded, TooLarge, TooSmall
from .graph import KPartiteGraph, check_shape, from_edge_list, new_complete, remove_edges
from .oracle import ORACLE_VERTEX_CAP, _Host, run_chunks
from .paths import is_hamilton_cycle

RNG_NAME = "mt19937"
_EXHAUSTIVE_CAP = 200_000


def tight_non_hamiltonian(k: int, n: int) -> KPartiteGraph:
    """The extremal instance one edge below the threshold.

    All host edges at vertex 0 are removed except the lowest, so vertex 0
    has degree 1 and the graph cannot be Hamiltonian, yet every other
    adjacency is complete. Rejects the 2-part, size-1 host, whose single
    edge leaves nothing to strip.
    """
    if (k, n) == (2, 1):
        raise TooSmall("the 2-part, size-1 host is a single edge; no tight instance")
    g = new_complete(k, n)
    doomed = [(0, w) for w in range(n + 1, k * n)]
    stripped, removed = remove_edges(g, doomed)
    assert removed == len(doomed)
    return stripped


def random_graph_at_edge_count(
    k: int, n: int, m: int, rng: random.Random
) -> KPartiteGraph:
    """Uniformly random m-edge subgraph of the complete host."""
    host = new_complete(k, n).edges()
    if not 0 <= m <= len(host):
        raise ValueError(f"edge count {m} outside 0..{len(host)}")
    return from_edge_list(k, n, rng.sample(host, m))


@dataclass(frozen=True, slots=True)
class FaultReport:
    """What fault_tolerance_trial found. budget, mode, rng, trials and failed
    follow from the stored fields and are computed on access, so a caller
    that keeps many reports keeps eight fields per report."""

    k: int
    n: int
    deletions: int
    seed: int | None  # None exactly in exhaustive mode
    survived: int
    fallbacks: int
    disagreements: int
    failures: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def budget(self) -> int:
        return (self.k - 1) * self.n - 2

    @property
    def mode(self) -> str:
        return "exhaustive" if self.seed is None else "random"

    @property
    def rng(self) -> str:
        return RNG_NAME

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def trials(self) -> int:
        return self.survived + self.failed


def _fault_chunk(
    args: tuple[int, int, int, int | None, bool, int, int],
) -> tuple[int, int, int, list[tuple[tuple[int, int], ...]]]:
    k, n, deletions, seed, cross_check, lo, hi = args
    host = _Host(k, n)
    ids = range(len(host.edges))
    at_threshold = len(ids) - deletions >= edge_threshold(k, n)
    fallbacks = disagreements = 0
    failures: list[tuple[tuple[int, int], ...]] = []
    if seed is None:  # exhaustive mode
        picks = islice(combinations(ids, deletions), lo, hi)
    else:
        picks = (
            sorted(random.Random(seed + i).sample(ids, deletions))
            for i in range(lo, hi)
        )
    for missing in picks:
        g = host.instance(missing)
        if at_threshold:
            result = solve(g)
            fallbacks += SEARCH_FALLBACK in result.trace
            alive = result.cycle is not None and is_hamilton_cycle(g.adj, result.cycle)
            if cross_check and k * n <= ORACLE_VERTEX_CAP:
                disagreements += alive != host.decide(g, missing, True).hamiltonian
        else:
            alive = host.decide(g, missing, False).hamiltonian
        if not alive:
            failures.append(tuple(host.edges[i] for i in missing))
    return hi - lo - len(failures), fallbacks, disagreements, failures


def fault_tolerance_trial(
    k: int,
    n: int,
    deletions: int,
    trials: int = 100,
    seed: int | None = None,
    exhaustive: bool = False,
    allow_over_budget: bool = False,
    jobs: int = 1,
    cross_check: bool = True,
) -> FaultReport:
    """Delete edges from the complete host and count Hamiltonian survivors.

    The deletion budget (k-1)n - 2 is the most the threshold can absorb;
    beyond it the verdict can genuinely be negative, so over-budget runs
    require allow_over_budget=True (and a host small enough for the
    oracle). Random mode runs `trials` draws seeded per trial; exhaustive
    mode visits every deletion set in ascending order and ignores `trials`
    and `seed`. The trials (the deletion sets, in exhaustive mode) run as
    min(jobs, trials, CPU count) index ranges; two or more run in a process
    pool, one worker each (see oracle.run_chunks).
    """
    if deletions < 0:
        raise ValueError("deletions must be nonnegative")
    check_shape(k, n)
    budget = (k - 1) * n - 2
    if deletions > budget and not allow_over_budget:
        raise BudgetExceeded(
            f"{deletions} deletions exceeds the budget of {budget}"
            f" for k={k}, n={n}"
        )
    host_count = comb(k, 2) * n * n
    if deletions > host_count:
        raise ValueError(f"cannot delete {deletions} of {host_count} edges")
    if exhaustive:
        total = comb(host_count, deletions)
        if total > _EXHAUSTIVE_CAP:
            raise TooLarge(
                f"{total} deletion sets; exhaustive mode is capped"
                f" at {_EXHAUSTIVE_CAP}"
            )
        seed = None
    else:
        if seed is None:
            raise ValueError("random mode requires a seed")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        total = trials
    # Every over-budget instance is below the threshold, so only the oracle
    # can decide it; refuse a host above its cap before any trial runs.
    if deletions > budget and k * n > ORACLE_VERTEX_CAP:
        raise TooLarge(
            "below-threshold instances need the oracle, and"
            f" {k * n} vertices exceeds its cap of {ORACLE_VERTEX_CAP}"
        )
    head = (k, n, deletions, seed, cross_check)
    survived, fallbacks, disagreements, failures = run_chunks(
        _fault_chunk, head, total, jobs
    )
    return FaultReport(
        k=k,
        n=n,
        deletions=deletions,
        seed=seed,
        survived=survived,
        fallbacks=fallbacks,
        disagreements=disagreements,
        failures=tuple(failures),
    )
