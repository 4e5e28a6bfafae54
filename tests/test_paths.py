from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpham import (
    InvalidCycle,
    InvalidPath,
    canonical_cycle,
    from_edge_list,
    is_hamilton_cycle,
    new_complete,
    validate_hamilton_cycle,
    validate_hamilton_path,
    validate_path,
)

C4 = from_edge_list(4, 1, [(0, 1), (1, 2), (2, 3), (0, 3)]).adj


# ---- reference: the four checks as they stood before the defect scan -----
#
# Kept verbatim (renamed with a ref_ prefix) so that the single defect scan
# in kpham.paths is held to the same errors, messages and answers.


def ref_validate_path(adj, seq) -> None:
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


def ref_validate_hamilton_path(adj, seq) -> None:
    ref_validate_path(adj, seq)
    if len(seq) != len(adj):
        raise InvalidPath(f"path covers {len(seq)} of {len(adj)} vertices")


def ref_validate_hamilton_cycle(adj, seq) -> None:
    """Raise InvalidCycle unless seq visits every vertex once and closes."""
    if len(seq) < 3:
        raise InvalidCycle("a cycle needs at least 3 vertices")
    try:
        ref_validate_hamilton_path(adj, seq)
    except InvalidPath as exc:
        raise InvalidCycle(str(exc)) from None
    if not adj[seq[-1]] & (1 << seq[0]):
        raise InvalidCycle(f"missing closing edge ({seq[-1]}, {seq[0]})")


def ref_is_hamilton_cycle(adj, seq) -> bool:
    try:
        ref_validate_hamilton_cycle(adj, seq)
    except InvalidCycle:
        return False
    return True


@st.composite
def graphs_and_sequences(draw):
    """A simple graph on 1..7 vertices and an integer sequence over
    -2..N+1 of length 0..N+2. Half the sequences are permutations of the
    vertices, so that the later checks (edges, cover, closing edge) are
    reached often."""
    count = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(count) for v in range(u + 1, count)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # one vertex has no edge, and no partite graph has a single part
    adj = from_edge_list(count, 1, edges).adj if count > 1 else (0,)
    if draw(st.booleans()):
        seq = draw(st.permutations(list(range(count))))
    else:
        seq = draw(st.lists(st.integers(-2, count + 1), max_size=count + 2))
    return adj, seq


def _outcome(check, adj, seq):
    try:
        check(adj, seq)
    except (InvalidPath, InvalidCycle) as exc:
        return type(exc), str(exc)
    return None


class TestMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(graphs_and_sequences())
    def test_same_error_class_and_message(self, case):
        adj, seq = case
        for check, ref in [
            (validate_path, ref_validate_path),
            (validate_hamilton_path, ref_validate_hamilton_path),
            (validate_hamilton_cycle, ref_validate_hamilton_cycle),
        ]:
            assert _outcome(check, adj, seq) == _outcome(ref, adj, seq)
        assert is_hamilton_cycle(adj, seq) is ref_is_hamilton_cycle(adj, seq)


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
    bad = from_edge_list(4, 1, [(0, 1), (1, 2), (2, 3)]).adj
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
