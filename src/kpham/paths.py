"""Vertex path and cycle utilities: validation and canonical form.

The validators here are the single source of truth for "is this really a
Hamilton cycle of that graph". Producers (solver, oracle, closure) never
certify their own output; tests and the CLI run sequences through these
functions instead.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidCycle, InvalidPath


def validate_path(adj: Sequence[int], seq: Sequence[int]) -> None:
    """Raise InvalidPath unless seq is a simple path of the graph."""
    if not seq:
        raise InvalidPath("empty vertex sequence")
    n_vertices = len(adj)
    seen = 0
    for v in seq:
        if not 0 <= v < n_vertices:
            raise InvalidPath(f"vertex {v} out of range")
        if seen & (1 << v):
            raise InvalidPath(f"vertex {v} repeated")
        seen |= 1 << v
    for a, b in zip(seq, seq[1:]):
        if not adj[a] & (1 << b):
            raise InvalidPath(f"missing edge ({a}, {b})")


def validate_hamilton_path(adj: Sequence[int], seq: Sequence[int]) -> None:
    validate_path(adj, seq)
    if len(seq) != len(adj):
        raise InvalidPath(f"path covers {len(seq)} of {len(adj)} vertices")


def validate_hamilton_cycle(adj: Sequence[int], seq: Sequence[int]) -> None:
    """Raise InvalidCycle unless seq visits every vertex once and closes."""
    if len(seq) < 3:
        raise InvalidCycle("a cycle needs at least 3 vertices")
    try:
        validate_hamilton_path(adj, seq)
    except InvalidPath as exc:
        raise InvalidCycle(str(exc)) from None
    if not adj[seq[-1]] & (1 << seq[0]):
        raise InvalidCycle(f"missing closing edge ({seq[-1]}, {seq[0]})")


def is_hamilton_cycle(adj: Sequence[int], seq: Sequence[int]) -> bool:
    try:
        validate_hamilton_cycle(adj, seq)
    except InvalidCycle:
        return False
    return True


def canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a cyclic sequence.

    Rotate so the smallest vertex id comes first, then pick the traversal
    direction whose second vertex id is smaller. Two sequences describing
    the same cycle always canonicalize identically.
    """
    if not seq:
        raise InvalidCycle("empty cycle")
    pos = seq.index(min(seq))
    rotated = tuple(seq[pos:]) + tuple(seq[:pos])
    if len(rotated) > 2 and rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + rotated[:0:-1]
    return rotated
