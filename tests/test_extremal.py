from __future__ import annotations

import os
import random
from collections import Counter

import pytest

import kpham.oracle
from kpham import (
    BudgetExceeded,
    InvalidGraph,
    TooLarge,
    TooSmall,
    edge_threshold,
    enumerate_threshold_sweep,
    evaluate,
    fault_tolerance_trial,
    is_hamiltonian,
    new_complete,
    random_graph_at_edge_count,
    tight_non_hamiltonian,
)
from kpham.graph import bits


class TestTightInstance:
    @pytest.mark.parametrize(("k", "n"), [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_one_below_threshold_and_not_hamiltonian(self, k, n):
        g = tight_non_hamiltonian(k, n)
        assert g.edge_count == edge_threshold(k, n) - 1
        assert g.adj[0].bit_count() == 1
        assert not is_hamiltonian(g).hamiltonian

    def test_damage_confined_to_vertex_zero(self):
        g = tight_non_hamiltonian(3, 2)
        assert list(bits(g.adj[0])) == [2]
        # vertices untouched by the strip keep the full cross degree 4;
        # the stripped partners drop to 3
        assert [row.bit_count() for row in g.adj] == [1, 4, 4, 3, 3, 3]

    def test_smallest_host_rejected(self):
        with pytest.raises(TooSmall):
            tight_non_hamiltonian(2, 1)


class TestRandomGraph:
    def test_reproducible_from_seed(self):
        a = random_graph_at_edge_count(3, 3, 20, random.Random(5))
        b = random_graph_at_edge_count(3, 3, 20, random.Random(5))
        assert a.edges() == b.edges()
        assert a.edge_count == 20

    def test_bad_edge_count(self):
        with pytest.raises(ValueError, match="outside"):
            random_graph_at_edge_count(2, 2, 5, random.Random(0))
        with pytest.raises(ValueError, match="outside"):
            random_graph_at_edge_count(2, 2, -1, random.Random(0))


@pytest.fixture
def oracle_methods(monkeypatch):
    """The method of every oracle call, each verdict checked against a
    call with nothing carried."""
    real = kpham.oracle.is_hamiltonian
    methods = []

    def counting(g, method="auto", carried=None):
        answer = real(g, method, carried)
        assert answer.hamiltonian == real(g).hamiltonian
        methods.append(answer.method)
        return answer

    monkeypatch.setattr(kpham.oracle, "is_hamiltonian", counting)
    return methods


class TestFaultTrials:
    def test_random_within_budget_all_survive(self):
        rep = fault_tolerance_trial(3, 2, deletions=2, trials=50, seed=11)
        assert rep.mode == "random"
        assert rep.rng == "mt19937"
        assert rep.trials == 50
        assert rep.survived == 50
        assert rep.failed == 0
        assert rep.disagreements == 0
        assert rep.failures == ()

    def test_seed_reproducibility(self):
        a = fault_tolerance_trial(4, 2, deletions=4, trials=40, seed=7)
        b = fault_tolerance_trial(4, 2, deletions=4, trials=40, seed=7)
        assert a == b
        c = fault_tolerance_trial(4, 2, deletions=4, trials=40, seed=8)
        assert c.survived == 40  # still within budget, different draws

    def test_jobs_do_not_change_the_report(self):
        serial = fault_tolerance_trial(4, 2, deletions=4, trials=60, seed=3, jobs=1)
        parallel = fault_tolerance_trial(4, 2, deletions=4, trials=60, seed=3, jobs=3)
        assert serial == parallel

    def test_pool_is_clamped_to_chunks_and_cpus(self, pool_widths, monkeypatch):
        serial = fault_tolerance_trial(3, 2, deletions=2, trials=20, seed=9)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        wide = fault_tolerance_trial(
            3, 2, deletions=2, trials=20, seed=9, jobs=10_000
        )
        assert wide == serial
        assert pool_widths.widths == pool_widths.chunks == [4]
        monkeypatch.setattr(os, "cpu_count", lambda: 1_000_000)
        fault_tolerance_trial(3, 2, deletions=2, trials=20, seed=9, jobs=10_000)
        assert pool_widths.widths[-1] == pool_widths.chunks[-1] == 20

    def test_budget_gate(self):
        with pytest.raises(BudgetExceeded, match="exceeds the budget"):
            fault_tolerance_trial(3, 2, deletions=3, trials=5, seed=1)

    def test_random_mode_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            fault_tolerance_trial(3, 2, deletions=2, trials=5)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fault_tolerance_trial(3, 2, deletions=-1, trials=5, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            fault_tolerance_trial(3, 2, deletions=2, trials=0, seed=1)
        with pytest.raises(ValueError, match="jobs"):
            fault_tolerance_trial(3, 2, deletions=2, trials=5, seed=1, jobs=0)

    def test_exhaustive_within_budget(self):
        rep = fault_tolerance_trial(3, 2, deletions=2, exhaustive=True)
        assert rep.mode == "exhaustive"
        assert rep.seed is None
        assert rep.trials == 66  # C(12, 2) deletion sets
        assert rep.survived == 66
        assert rep.failed == 0
        assert rep.disagreements == 0

    def test_exhaustive_over_budget_finds_the_extremal_sets(self):
        rep = fault_tolerance_trial(
            3, 2, deletions=3, exhaustive=True, allow_over_budget=True
        )
        assert rep.trials == 220
        assert rep.survived == 184
        assert rep.failed == 36
        assert rep.disagreements == 0
        assert len(rep.failures) == 36
        # each failing deletion set leaves a genuinely non-hamiltonian graph
        sample = rep.failures[0]
        host = new_complete(3, 2)
        from kpham import remove_edges

        g, _ = remove_edges(host, sample)
        assert not is_hamiltonian(g).hamiltonian

    def test_exhaustive_jobs_invariance(self):
        serial = fault_tolerance_trial(
            3, 2, deletions=3, exhaustive=True, allow_over_budget=True, jobs=1
        )
        parallel = fault_tolerance_trial(
            3, 2, deletions=3, exhaustive=True, allow_over_budget=True, jobs=4
        )
        assert serial == parallel

    def test_cross_check_carries_oracle_cycles(self, oracle_methods):
        # At the budget every trial is at the threshold, so the oracle's
        # cross-check offers cycles it found on earlier trials.
        rep = fault_tolerance_trial(4, 3, 7, trials=1000, seed=1)
        assert (rep.survived, rep.disagreements) == (1000, 0)
        assert Counter(oracle_methods) == {"backtracking": 170, "carried": 830}

    def test_over_budget_trials_are_never_carried(self, oracle_methods):
        rep = fault_tolerance_trial(
            3, 2, deletions=3, exhaustive=True, allow_over_budget=True
        )
        assert (rep.trials, rep.survived) == (220, 184)
        assert len(oracle_methods) == 220 and "carried" not in oracle_methods

    def test_over_budget_random_needs_small_host(self):
        # 5x4 = 20 vertices exceeds the oracle cap, so an over-budget
        # random run must refuse rather than guess
        with pytest.raises(TooLarge):
            fault_tolerance_trial(
                5, 4, deletions=15, trials=2, seed=1, allow_over_budget=True
            )

    def test_over_budget_large_host_refused_before_any_pool(
        self, pool_widths, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(TooLarge, match="20 vertices exceeds its cap of 16"):
            fault_tolerance_trial(
                5, 4, deletions=15, trials=2, seed=1, allow_over_budget=True, jobs=2
            )
        assert pool_widths.widths == []

    def test_budget_consistency_with_reports(self):
        rep = fault_tolerance_trial(4, 3, deletions=7, trials=30, seed=2)
        assert rep.budget == 7
        assert rep.survived == 30
        g = new_complete(4, 3)
        assert evaluate(g).edge_count - rep.deletions >= edge_threshold(4, 3)


class TestRefusals:
    def test_more_deletions_than_host_edges(self, oracle_methods):
        with pytest.raises(ValueError) as caught:
            fault_tolerance_trial(2, 2, 5, seed=1, allow_over_budget=True)
        assert str(caught.value) == "cannot delete 5 of 4 edges"
        assert oracle_methods == []

    def test_exhaustive_cap(self, oracle_methods):
        with pytest.raises(TooLarge) as caught:
            fault_tolerance_trial(4, 4, 10, exhaustive=True)
        assert str(caught.value) == (
            "11279926456656 deletion sets; exhaustive mode is capped at 200000"
        )
        assert oracle_methods == []


class TestShapeErrors:
    # Both entry points check the shape before any other argument but the
    # fault trials' deletion count: the vertex cap first, then the parts,
    # then the part size, each with graph.check_shape's class and message.
    @pytest.mark.parametrize(
        ("k", "n", "error", "message"),
        [
            (65, 1, TooLarge, "k*n=65 exceeds the bit-matrix cap 64"),
            (1, 65, TooLarge, "k*n=65 exceeds the bit-matrix cap 64"),
            (-8, -9, TooLarge, "k*n=72 exceeds the bit-matrix cap 64"),
            (1, 3, InvalidGraph, "need at least 2 parts, got k=1"),
            (0, 0, InvalidGraph, "need at least 2 parts, got k=0"),
            (3, 0, InvalidGraph, "need at least 1 vertex per part, got n=0"),
            (2, -1, InvalidGraph, "need at least 1 vertex per part, got n=-1"),
        ],
        ids=["65x1", "1x65", "-8x-9", "1x3", "0x0", "3x0", "2x-1"],
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda k, n: enumerate_threshold_sweep(k, n, min_edges=0),
            lambda k, n: fault_tolerance_trial(k, n, deletions=10_000, trials=1, seed=1),
            lambda k, n: fault_tolerance_trial(k, n, deletions=0, exhaustive=True),
        ],
        ids=["sweep", "faults-random", "faults-exhaustive"],
    )
    def test_shape_errors(self, entry, k, n, error, message):
        with pytest.raises(error) as caught:
            entry(k, n)
        assert type(caught.value) is error
        assert str(caught.value) == message
