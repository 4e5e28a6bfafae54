"""Golden solver outputs: the seeded inputs here, the pinned outputs as data.

Byte-for-byte pins of solve(), solve_theorem11() and evaluate() on a seeded
instance set that reaches every route: BaseN1/OreRotation, BaseK2, the
multipartite closure with and without BaseN2 (rand and hub graphs, sigma
below N included), and Theorem 11 one edge short through the same routes.

The inputs and the way each output is computed live in this module. The
outputs live in files under tests/golden/: one file per literal, holding
solve()'s two lines and then solve_theorem11()'s two lines on the graph one
edge short, and batch.sha256 for the seeded batch. TestGolden reads the
files and never writes them; scripts/regen_golden.py rewrites them from the
current code and prints the diff, so a re-pin is a reviewed data diff.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from kpham import (
    edge_threshold,
    evaluate,
    new_complete,
    random_graph_at_edge_count,
    remove_edges,
    solve,
    solve_theorem11,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BATCH_FILE = "batch.sha256"

GOLDEN_SHAPES = (
    (3, 1), (5, 1), (8, 1), (2, 2), (2, 4), (2, 8), (3, 2), (4, 2), (5, 2),
    (6, 2), (8, 2), (3, 3), (4, 3), (3, 4), (5, 3), (4, 4), (6, 3),
)

GOLDEN_LITERALS = [
    # (k, n, dropped host edges)
    (4, 1, [(0, 1)]),
    (2, 3, [(0, 3)]),
    (4, 2, [(0, 2), (1, 4), (3, 7), (5, 6)]),
    (5, 2, [(2, 6), (4, 6), (5, 8), (6, 8), (6, 9), (7, 8)]),
    # the sigma pair (2, 4) sums to 9 < N, below the all-pairs bound
    (5, 2, [(0, 2), (0, 4), (2, 4), (2, 6), (4, 7), (4, 9)]),
    (3, 3, [(0, 4), (0, 6), (0, 8), (1, 8)]),
    (3, 3, [(0, 3), (0, 4), (0, 5), (2, 5)]),
    (4, 3, [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 9)]),
    # vertex 8 keeps only 3 neighbours, none of them in part 0
    (5, 2, [(0, 8), (1, 8), (1, 9), (4, 8), (5, 8), (7, 8)]),
]

LITERAL_IDS = [f"{k}x{n}-drop{i}" for i, (k, n, _) in enumerate(GOLDEN_LITERALS)]


def hub_instance(k: int, n: int, rng: random.Random):
    """Spend the whole deletion budget (k-1)n - 2 on one vertex, usually
    keeping its surviving neighbours inside a single part."""
    budget = (k - 1) * n - 2
    hub = rng.randrange(k * n)
    others = [w for w in range(k * n) if w // n != hub // n]
    keep = rng.choice(sorted({w // n for w in others}))
    rng.shuffle(others)
    if rng.random() < 0.7:
        others.sort(key=lambda w: w // n == keep)
    g, _ = remove_edges(
        new_complete(k, n), [(min(hub, w), max(hub, w)) for w in others[:budget]]
    )
    return g


def golden_instances():
    rng = random.Random(2023)
    for k, n in GOLDEN_SHAPES:
        for _ in range(16):
            yield random_graph_at_edge_count(k, n, edge_threshold(k, n), rng)
            yield hub_instance(k, n, rng)


def one_short(g):
    edges = g.edges()
    return remove_edges(g, [edges[len(edges) // 2]])[0]


def literal_output(k: int, n: int, drop) -> str:
    """solve() on the host less drop, then solve_theorem11() one edge short."""
    g, _ = remove_edges(new_complete(k, n), drop)
    return solve(g).serialize() + solve_theorem11(one_short(g)).serialize()


def batch_digest() -> tuple[str, set[str]]:
    """The SHA-256 of every golden instance's solve(), solve_theorem11() one
    edge short and evaluate() record, and the trace tags solve() used."""
    digest = hashlib.sha256()
    tags: set[str] = set()
    for g in golden_instances():
        result = solve(g)
        tags.update(result.trace)
        digest.update(result.serialize().encode())
        digest.update(solve_theorem11(one_short(g)).serialize().encode())
        digest.update((evaluate(g).as_record() + "\n").encode())
    return digest.hexdigest(), tags


def current_files() -> dict[str, str]:
    """Every golden file's content as the current code computes it."""
    files = {
        f"{name}.txt": literal_output(k, n, drop)
        for name, (k, n, drop) in zip(LITERAL_IDS, GOLDEN_LITERALS)
    }
    files[BATCH_FILE] = batch_digest()[0] + "\n"
    return files


def read(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")
