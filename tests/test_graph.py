from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from conftest import (
    adjacency_rows,
    naive_adjacency_error,
    naive_sigma,
    naive_sigma_pair,
    partite_graphs,
)
from kpham import (
    MAX_VERTICES,
    SIGMA_INFINITY,
    InvalidGraph,
    KPartiteGraph,
    TooLarge,
    from_edge_list,
    new_complete,
    remove_edges,
    stats,
)
from kpham.graph import bits, check_shape, part_masks


class TestConstruction:
    def test_complete_shape(self):
        g = new_complete(3, 2)
        assert g.num_vertices == 6
        assert g.edge_count == 12  # C(3,2) * 2 * 2
        assert all(row.bit_count() == 4 for row in g.adj)
        assert part_masks(3, 2) == (0b000011, 0b001100, 0b110000)

    def test_complete_edge_count_formula(self):
        for k in range(2, 6):
            for n in range(1, 4):
                g = new_complete(k, n)
                assert g.edge_count == math.comb(k, 2) * n * n

    def test_from_edge_list_collapses_duplicates(self):
        g = from_edge_list(2, 2, [(0, 2), (2, 0), (0, 2)])
        assert g.edge_count == 1
        assert g.edges() == [(0, 2)]

    def test_rejects_intra_part_edge(self):
        with pytest.raises(InvalidGraph, match="joins two part-0"):
            from_edge_list(2, 2, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraph):
            from_edge_list(2, 2, [(0, 4)])
        with pytest.raises(InvalidGraph):
            from_edge_list(2, 2, [(-1, 2)])

    @pytest.mark.parametrize(
        ("edge", "message"),
        [
            ((0, 4), "edge (0, 4) out of range for 4 vertices"),
            ((4, 4), "edge (4, 4) out of range for 4 vertices"),
            ((-1, -1), "edge (-1, -1) out of range for 4 vertices"),
            ((1, 1), "edge (1, 1) is a self-loop"),
            ((3, 2), "edge (3, 2) joins two part-1 vertices"),
        ],
    )
    def test_edge_errors_and_their_order(self, edge, message):
        # range, then self-loop, then intra-part; the first bad edge wins
        with pytest.raises(InvalidGraph) as exc_info:
            from_edge_list(2, 2, [(0, 2), edge, (0, 9)])
        assert str(exc_info.value) == message

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            KPartiteGraph(2, 1, (1, 2))

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidGraph, match="symmetric"):
            KPartiteGraph(2, 1, (2, 0))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidGraph):
            KPartiteGraph(1, 2, (0, 0))
        with pytest.raises(InvalidGraph):
            KPartiteGraph(2, 0, ())
        with pytest.raises(InvalidGraph, match="rows"):
            KPartiteGraph(2, 2, (0, 0))

    @pytest.mark.parametrize(
        ("k", "n", "error", "message"),
        [
            (1, 2, InvalidGraph, "need at least 2 parts, got k=1"),
            (2, 0, InvalidGraph, "need at least 1 vertex per part, got n=0"),
            (2, -1, InvalidGraph, "need at least 1 vertex per part, got n=-1"),
            (5, 13, TooLarge, "k*n=65 exceeds the bit-matrix cap 64"),
            (1, 65, TooLarge, "k*n=65 exceeds the bit-matrix cap 64"),
        ],
    )
    def test_every_constructor_checks_the_shape_alike(self, k, n, error, message):
        constructors = [
            lambda: check_shape(k, n),
            lambda: new_complete(k, n),
            lambda: from_edge_list(k, n, []),
            lambda: KPartiteGraph(k, n, (0,) * max(k * n, 0)),
        ]
        for construct in constructors:
            with pytest.raises(error) as exc_info:
                construct()
            assert str(exc_info.value) == message

    def test_vertex_cap(self):
        with pytest.raises(TooLarge):
            new_complete(5, 13)  # 65 vertices
        assert new_complete(4, 16).num_vertices == MAX_VERTICES


def rows_with(count: int, bits: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """count rows, row v holding the bit positions bits[v]."""
    rows = [0] * count
    for v, positions in bits.items():
        for u in positions:
            rows[v] |= 1 << u
    return tuple(rows)


class TestValidation:
    """The constructor's four row errors, word for word, and the order in
    which it finds them: rows ascending, and within a row the range,
    self-loop, intra-part and then asymmetry test. The (2, 3) host has the
    parts {0, 1, 2} and {3, 4, 5}."""

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            pytest.param(rows_with(6, {1: (6,)}), "vertex 1 has neighbors outside 0..5", id="range"),
            pytest.param(rows_with(6, {4: (4,)}), "vertex 4 has a self-loop", id="loop"),
            pytest.param(rows_with(6, {2: (0,)}), "vertex 2 has an intra-part neighbor", id="intra"),
            pytest.param(rows_with(6, {2: (5,)}), "asymmetric adjacency between 5 and 2", id="asymmetric"),
            pytest.param(
                rows_with(6, {3: (0,), 5: (9,)}), "asymmetric adjacency between 0 and 3",
                id="asymmetry-row-3-before-range-row-5",
            ),
            pytest.param(
                rows_with(6, {2: (7,), 3: (0,)}), "vertex 2 has neighbors outside 0..5",
                id="range-row-2-before-asymmetry-row-3",
            ),
            pytest.param(
                rows_with(6, {1: (1, 2, 3, 6)}), "vertex 1 has neighbors outside 0..5",
                id="row-range-first",
            ),
            pytest.param(rows_with(6, {1: (1, 2, 3)}), "vertex 1 has a self-loop", id="row-loop-second"),
            pytest.param(
                rows_with(6, {1: (2, 3)}), "vertex 1 has an intra-part neighbor", id="row-intra-third"
            ),
            pytest.param(
                rows_with(6, {1: (3,), 3: (1, 2), 0: (4, 5)}),
                "asymmetric adjacency between 4 and 0",
                id="lowest-row-then-lowest-neighbour",
            ),
            pytest.param(
                rows_with(6, {1: (5,), 4: (0,)}), "asymmetric adjacency between 5 and 1",
                id="lower-row-wins",
            ),
            pytest.param(
                rows_with(6, {0: (3, 64), 3: (0,)}), "vertex 0 has neighbors outside 0..5",
                id="bit-past-any-packing",
            ),
            pytest.param(
                rows_with(6, {0: (11,), 1: (3,)}), "vertex 0 has neighbors outside 0..5",
                id="bit-in-the-next-rows-slot",
            ),
        ],
    )
    def test_row_errors_and_their_order(self, rows, message):
        assert str(naive_adjacency_error(2, 3, rows)) == message
        with pytest.raises(InvalidGraph) as exc_info:
            KPartiteGraph(2, 3, rows)
        assert str(exc_info.value) == message

    def test_wide_rows(self):
        # 64 vertices: the last row and the top bit of a row are reached
        g = new_complete(2, 32)
        rows = list(g.adj)
        rows[0] &= ~(1 << 63)
        with pytest.raises(InvalidGraph) as exc_info:
            KPartiteGraph(2, 32, tuple(rows))
        assert str(exc_info.value) == "asymmetric adjacency between 0 and 63"
        rows = list(g.adj)
        rows[63] &= ~1
        with pytest.raises(InvalidGraph) as exc_info:
            KPartiteGraph(2, 32, tuple(rows))
        assert str(exc_info.value) == "asymmetric adjacency between 63 and 0"

    @settings(max_examples=400, deadline=None)
    @given(adjacency_rows())
    def test_matches_naive_reference(self, case):
        k, n, rows = case
        expected = naive_adjacency_error(k, n, rows)
        if expected is None:
            assert KPartiteGraph(k, n, rows).adj == rows
            return
        with pytest.raises(InvalidGraph) as exc_info:
            KPartiteGraph(k, n, rows)
        assert type(exc_info.value) is type(expected)
        assert str(exc_info.value) == str(expected)


class TestEditing:
    def test_remove_edges_reports_count(self):
        g = new_complete(2, 2)
        g2, removed = remove_edges(g, [(0, 2), (2, 0), (1, 3)])
        assert removed == 2
        assert g2.edge_count == 2
        # absent edges are ignored, not an error
        g3, removed = remove_edges(g2, [(0, 2)])
        assert removed == 0 and g3 == g2


class TestStats:
    def test_complete_sigma_is_infinite(self):
        st_ = stats(new_complete(3, 2))
        assert st_.sigma == SIGMA_INFINITY
        assert st_.sigma == math.inf
        assert st_.min_degree == 4
        assert st_.edge_count == 12

    def test_handmade_sigma(self):
        # remove (0,2): the pair (0,2) is the only nonadjacent cross pair
        g, _ = remove_edges(new_complete(3, 2), [(0, 2)])
        st_ = stats(g)
        assert st_.min_degree == 3
        assert st_.sigma == 6  # d(0)=3, d(2)=3

    @settings(max_examples=120, deadline=None)
    @given(partite_graphs())
    def test_sigma_matches_naive(self, g: KPartiteGraph):
        assert stats(g).sigma == naive_sigma(g.k, g.n, g.edges())

    @settings(max_examples=120, deadline=None)
    @given(partite_graphs())
    def test_sigma_pair_matches_naive(self, g: KPartiteGraph):
        st_ = stats(g)
        assert st_.sigma_pair == naive_sigma_pair(g.k, g.n, g.edges())
        assert (st_.sigma_pair is None) == (st_.sigma == SIGMA_INFINITY)

    def test_handmade_sigma_pair(self):
        # missing (0,2), (1,4), (1,5): d(1) = 2 and the rest have degree 3,
        # so (0,2) sums to 6 while (1,4) and (1,5) tie at 5; the first wins
        g, _ = remove_edges(new_complete(3, 2), [(0, 2), (1, 4), (1, 5)])
        st_ = stats(g)
        assert (st_.sigma, st_.sigma_pair) == (5, (1, 4))
        assert stats(new_complete(3, 2)).sigma_pair is None

    @settings(max_examples=120, deadline=None)
    @given(partite_graphs())
    def test_degree_sum_is_twice_edges(self, g: KPartiteGraph):
        assert sum(row.bit_count() for row in g.adj) == 2 * g.edge_count

    @settings(max_examples=80, deadline=None)
    @given(partite_graphs())
    def test_edges_round_trip(self, g: KPartiteGraph):
        assert from_edge_list(g.k, g.n, g.edges()) == g
        assert g.edges() == sorted(g.edges())

    @settings(max_examples=80, deadline=None)
    @given(partite_graphs())
    def test_neighbors_agree_with_adjacent(self, g: KPartiteGraph):
        for v in range(g.num_vertices):
            nbrs = list(bits(g.adj[v]))
            assert len(nbrs) == g.adj[v].bit_count()
            assert all(g.adj[v] >> w & 1 and g.adj[w] >> v & 1 for w in nbrs)
