from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

from conftest import partite_graphs
from kpham import (
    SIGMA_INFINITY,
    TooSmall,
    check_ore,
    check_theorem2_edges,
    check_theorem4_min_degree,
    check_theorem5_sigma,
    edge_threshold,
    evaluate,
    from_edge_list,
    new_complete,
    remove_edges,
    stats,
    tight_non_hamiltonian,
)


@pytest.mark.parametrize(
    ("k", "n", "want"),
    [
        (2, 1, 1),
        (2, 2, 4),
        (2, 3, 8),
        (3, 2, 10),
        (3, 3, 23),
        (4, 2, 20),
        (4, 3, 47),
        (5, 2, 34),
        (2, 10, 92),
    ],
)
def test_edge_threshold_values(k, n, want):
    assert edge_threshold(k, n) == want


def test_edge_threshold_formula_everywhere():
    for k in range(2, 9):
        for n in range(1, 7):
            if (k, n) == (2, 1):
                continue
            assert edge_threshold(k, n) == comb(k, 2) * n * n - (k - 1) * n + 2


def test_edge_threshold_rejects_degenerate_shapes():
    with pytest.raises(TooSmall):
        edge_threshold(1, 5)
    with pytest.raises(TooSmall):
        edge_threshold(3, 0)


def test_threshold_complement_budget():
    # meeting the threshold is the same as missing at most (k-1)*n - 2
    # host edges, which is the whole fault-tolerance budget
    for k in range(2, 7):
        for n in range(1, 5):
            if (k, n) == (2, 1):
                continue
            host = comb(k, 2) * n * n
            assert host - edge_threshold(k, n) == (k - 1) * n - 2


def test_min_degree_at_threshold_is_at_least_two():
    # a vertex of degree 1 is missing (k-1)*n - 1 host edges, one more
    # than the budget allows
    for k in range(2, 7):
        for n in range(1, 5):
            if (k, n) == (2, 1):
                continue
            assert (k - 1) * n - 1 > (k - 1) * n - 2


class TestOre:
    def test_complete_passes(self):
        ok, witness = check_ore(new_complete(3, 2).adj)
        assert ok and witness is None

    def test_path_fails_with_first_witness(self):
        # path 0-1-2-3: nonadjacent pairs (0,2), (0,3), (1,3)
        rows = from_edge_list(4, 1, [(0, 1), (1, 2), (2, 3)]).adj
        ok, witness = check_ore(rows)
        assert not ok
        assert witness == (0, 2)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            check_ore((2, 1))

    @settings(max_examples=150, deadline=None)
    @given(partite_graphs(min_n=2))
    def test_matches_naive(self, g):
        degs = [row.bit_count() for row in g.adj]
        expected = all(
            degs[u] + degs[v] >= g.num_vertices
            for u in range(g.num_vertices)
            for v in range(u + 1, g.num_vertices)
            if not g.adj[u] >> v & 1
        )
        ok, witness = check_ore(g.adj)
        assert ok == expected
        if not ok:
            u, v = witness
            assert not g.adj[u] >> v & 1
            assert degs[u] + degs[v] < g.num_vertices


class TestEdgeCountCondition:
    def test_boundary_on_complete_parts_of_one(self):
        # on 4 vertices the bound is C(3,2) + 2 = 5
        g = new_complete(4, 1)  # 6 edges
        assert check_theorem2_edges(g.adj)
        g5, _ = remove_edges(g, [(0, 1)])
        assert check_theorem2_edges(g5.adj)
        g4, _ = remove_edges(g5, [(2, 3)])
        assert not check_theorem2_edges(g4.adj)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            check_theorem2_edges((0, 0))


def _fraction_degree_bound(k: int, n: int) -> Fraction:
    if k % 2 == 1:
        return (Fraction(k, 2) - Fraction(1, k + 1)) * n
    return (Fraction(k, 2) - Fraction(2, k + 2)) * n


def _fraction_sigma_bound(k: int, n: int) -> Fraction:
    if k % 2 == 1:
        return (k - Fraction(2, k + 1)) * n
    return (k - Fraction(4, k + 2)) * n


@settings(max_examples=200, deadline=None)
@given(partite_graphs(max_k=5))
def test_degree_bound_matches_fraction_arithmetic(g):
    st = stats(g)
    assert check_theorem4_min_degree(g) == (st.min_degree > _fraction_degree_bound(g.k, g.n))


@settings(max_examples=200, deadline=None)
@given(partite_graphs(max_k=5))
def test_sigma_bound_matches_fraction_arithmetic(g):
    st = stats(g)
    if st.sigma == SIGMA_INFINITY:
        assert check_theorem5_sigma(g)
    else:
        assert check_theorem5_sigma(g) == (st.sigma > _fraction_sigma_bound(g.k, g.n))


class TestEvaluate:
    def test_complete_graph_report(self):
        rep = evaluate(new_complete(3, 2))
        assert rep.meets_theorem1
        assert rep.meets_ore
        assert rep.meets_theorem4_min_degree
        assert rep.meets_theorem5_sigma
        assert rep.meets_theorem11
        assert rep.sigma == SIGMA_INFINITY
        assert rep.violations == {}
        assert "sigma=inf" in rep.as_record()

    def test_tight_graph_report(self):
        rep = evaluate(tight_non_hamiltonian(3, 2))
        assert not rep.meets_theorem1
        assert rep.edge_count == 9
        assert rep.edge_threshold_t1 == 10
        assert rep.min_degree == 1
        assert not rep.meets_theorem11  # min degree 1
        assert rep.violations["theorem11"] == (0,)
        assert not rep.meets_ore
        assert rep.violations["ore"][0] == 0

    def test_one_short_with_degree_two_meets_relaxed_condition(self):
        # drop a perfect matching of cross edges: every degree stays high
        g, _ = remove_edges(new_complete(3, 2), [(0, 2)])
        rep = evaluate(g)
        assert rep.edge_count == 11
        assert rep.meets_theorem1 and rep.meets_theorem11

    def test_record_and_block_agree(self):
        rep = evaluate(from_edge_list(2, 2, [(0, 2), (1, 3), (0, 3)]))
        record = rep.as_record()
        block = rep.as_block()
        assert block.endswith("\n")
        assert record.split(" ") == block.strip().split("\n")
        assert "\n" not in record

    def test_sigma_violation_witness_attains_sigma(self):
        g, _ = remove_edges(new_complete(3, 2), [(0, 2), (0, 3), (0, 4)])
        rep = evaluate(g)
        if not rep.meets_theorem5_sigma:
            u, v = rep.violations["theorem5_sigma"]
            assert g.adj[u].bit_count() + g.adj[v].bit_count() == rep.sigma
            assert not g.adj[u] >> v & 1
