"""Shared helpers: independent re-derivations used to check the library.

Everything here is written the slow, obvious way on purpose — dict
adjacency, itertools permutations, Fraction arithmetic — so the fast
bitmask implementations are always compared against code that shares
nothing with them.
"""

from __future__ import annotations

import concurrent.futures
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from kpham import KPartiteGraph, from_edge_list, new_complete


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
    stand-in and return the list of max_workers values it is built with,
    so pool sizing can be checked without starting a process."""
    widths: list[int] = []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return widths
