"""Vertex path and cycle utilities: validation and canonical form.

The validators here are the single source of truth for "is this really a
Hamilton cycle of that graph". Producers (solver, oracle, closure) never
certify their own output; tests and the CLI run sequences through these
functions instead.

All four checks share one defect scan, _defect, which returns the message
of the first defect it meets, or None. validate_path, validate_hamilton_path
and validate_hamilton_cycle raise that message as their own error class,
and is_hamilton_cycle returns whether it is None, so a rejection on the
boolean path raises and catches nothing.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidCycle, InvalidPath


def _defect(
    adj: Sequence[int], seq: Sequence[int], cover: bool = False, close: bool = False
) -> str | None:
    """The first defect of seq as a path of adj, or None.

    The checks run in this order: fewer than 3 vertices (close only); an
    empty sequence; over the whole sequence, each vertex out of range or
    repeated; a missing edge between consecutive vertices; fewer vertices
    than adj has (cover only); the missing closing edge (close only). When
    every vertex is distinct and in range, one pass of builtins shows it
    and the per-vertex loop that names the first bad one is skipped.
    """
    if close and len(seq) < 3:
        return "a cycle needs at least 3 vertices"
    if not seq:
        return "empty vertex sequence"
    n_vertices = len(adj)
    if min(seq) < 0 or max(seq) >= n_vertices or len(set(seq)) != len(seq):
        seen = 0
        for v in seq:
            if not 0 <= v < n_vertices:
                return f"vertex {v} out of range"
            if seen >> v & 1:
                return f"vertex {v} repeated"
            seen |= 1 << v
    for a, b in zip(seq, seq[1:]):
        if not adj[a] >> b & 1:
            return f"missing edge ({a}, {b})"
    if cover and len(seq) != n_vertices:
        return f"path covers {len(seq)} of {n_vertices} vertices"
    if close and not adj[seq[-1]] >> seq[0] & 1:
        return f"missing closing edge ({seq[-1]}, {seq[0]})"
    return None


def validate_path(adj: Sequence[int], seq: Sequence[int]) -> None:
    """Raise InvalidPath unless seq is a simple path of the graph."""
    defect = _defect(adj, seq)
    if defect is not None:
        raise InvalidPath(defect)


def validate_hamilton_path(adj: Sequence[int], seq: Sequence[int]) -> None:
    """Raise InvalidPath unless seq is a simple path through every vertex."""
    defect = _defect(adj, seq, cover=True)
    if defect is not None:
        raise InvalidPath(defect)


def validate_hamilton_cycle(adj: Sequence[int], seq: Sequence[int]) -> None:
    """Raise InvalidCycle unless seq visits every vertex once and closes."""
    defect = _defect(adj, seq, cover=True, close=True)
    if defect is not None:
        raise InvalidCycle(defect)


def is_hamilton_cycle(adj: Sequence[int], seq: Sequence[int]) -> bool:
    """Whether validate_hamilton_cycle accepts seq, without raising."""
    return _defect(adj, seq, cover=True, close=True) is None


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
