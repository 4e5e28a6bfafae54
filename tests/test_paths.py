from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpham import (
    InvalidCycle,
    InvalidPath,
    canonical_cycle,
    is_hamilton_cycle,
    new_complete,
    validate_hamilton_cycle,
    validate_hamilton_path,
    validate_path,
)
from kpham.graph import adjacency_from_edges

C4 = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_validate_path_accepts_simple_path():
    validate_path(C4, [0, 1, 2])
    validate_path(C4, [3])


@pytest.mark.parametrize(
    ("seq", "fragment"),
    [
        ([], "empty"),
        ([0, 4], "out of range"),
        ([0, -1], "out of range"),
        ([0, 1, 0], "repeated"),
        ([0, 2], "missing edge (0, 2)"),
    ],
)
def test_validate_path_rejections(seq, fragment):
    with pytest.raises(InvalidPath, match=r".*"):
        validate_path(C4, seq)
    try:
        validate_path(C4, seq)
    except InvalidPath as exc:
        assert fragment in str(exc)


def test_hamilton_path_needs_full_cover():
    validate_hamilton_path(C4, [0, 1, 2, 3])
    with pytest.raises(InvalidPath, match="covers 3 of 4"):
        validate_hamilton_path(C4, [0, 1, 2])


def test_hamilton_cycle_checks_closing_edge():
    validate_hamilton_cycle(C4, [0, 1, 2, 3])
    bad = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidCycle, match="closing edge"):
        validate_hamilton_cycle(bad, [0, 1, 2, 3])


def test_hamilton_cycle_rejects_tiny_and_wraps_path_errors():
    with pytest.raises(InvalidCycle, match="at least 3"):
        validate_hamilton_cycle(C4, [0, 1])
    with pytest.raises(InvalidCycle, match="repeated"):
        validate_hamilton_cycle(C4, [0, 1, 2, 1])


def test_is_hamilton_cycle_bool():
    assert is_hamilton_cycle(C4, [0, 1, 2, 3])
    assert not is_hamilton_cycle(C4, [0, 1, 3, 2])
    g = new_complete(2, 2)
    assert is_hamilton_cycle(g.adj, [0, 2, 1, 3])
    assert not is_hamilton_cycle(g.adj, [0, 1, 2, 3])  # 0-1 intra-part


class TestCanonicalCycle:
    def test_rotation(self):
        assert canonical_cycle([2, 3, 0, 1]) == (0, 1, 2, 3)

    def test_reflection_prefers_smaller_second(self):
        assert canonical_cycle([0, 3, 2, 1]) == (0, 1, 2, 3)
        assert canonical_cycle([0, 2, 3, 1]) == (0, 1, 3, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidCycle):
            canonical_cycle([])

    def test_short_sequences(self):
        assert canonical_cycle([4]) == (4,)
        assert canonical_cycle([5, 2]) == (2, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(6))), st.integers(0, 5), st.booleans())
    def test_invariant_under_rotation_and_reversal(self, perm, shift, flip):
        base = canonical_cycle(perm)
        moved = perm[shift:] + perm[:shift]
        if flip:
            moved = list(reversed(moved))
        assert canonical_cycle(moved) == base

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(list(range(5))))
    def test_idempotent_and_same_multiset(self, perm):
        canon = canonical_cycle(perm)
        assert canonical_cycle(canon) == canon
        assert sorted(canon) == sorted(perm)
        assert canon[0] == min(perm)
