from __future__ import annotations

import ast
import os
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partite_graphs, perm_hamiltonian
import kpham.oracle
from kpham import constructive
from kpham import (
    ConstructionFailed,
    EnumerationSummary,
    InvalidGraph,
    SolveResult,
    TooLarge,
    enumerate_threshold_sweep,
    from_edge_list,
    is_hamilton_cycle,
    is_hamiltonian,
    new_complete,
    remove_edges,
    validate_hamilton_cycle,
)
from kpham.cli import run
from kpham.conditions import edge_threshold
from kpham.graph import bits
from kpham.oracle import _BACKTRACK_BUDGET, _CARRIED_CYCLES, Counterexample, _Host
from kpham.paths import canonical_cycle

PETERSEN = from_edge_list(
    10, 1,
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ],
).adj

# two K4s sharing vertex 3: connected, minimum degree 3, but a cut vertex
TWO_K4 = from_edge_list(
    7, 1,
    [e for block in ((0, 1, 2, 3), (3, 4, 5, 6)) for e in combinations(block, 2)],
).adj


# ---- reference: the raw-row check as it stood in the oracle --------------
#
# Kept verbatim (renamed with a ref_ prefix) so that is_hamiltonian's check
# of raw rows is held to the same errors and messages.


def ref_check_rows(rows: tuple[int, ...]) -> None:
    """Raise InvalidGraph unless rows form a simple undirected graph on
    0..len(rows)-1: no bit outside that range, no self-loop, and u in
    rows[v] exactly when v is in rows[u]. A KPartiteGraph's constructor
    has already made these checks."""
    count = len(rows)
    full = (1 << count) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise InvalidGraph(f"vertex {v} has neighbors outside 0..{count - 1}")
        if row >> v & 1:
            raise InvalidGraph(f"vertex {v} has a self-loop")
        for u in bits(row):
            if not rows[u] >> v & 1:
                raise InvalidGraph(f"asymmetric adjacency between {u} and {v}")


@st.composite
def perturbed_rows(draw):
    """A symmetric graph on 2..16 vertices, then 0..3 perturbations: a
    flipped bit, a self-loop, a bit at N..N+70, or a negative row."""
    count = draw(st.integers(2, 16))
    pairs = list(combinations(range(count), 2))
    rows = [0] * count
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, count - 1))
        kind = draw(st.sampled_from(["flip", "loop", "outside", "negative"]))
        if kind == "flip":
            rows[v] ^= 1 << draw(st.integers(0, count - 1))
        elif kind == "loop":
            rows[v] |= 1 << v
        elif kind == "outside":
            rows[v] |= 1 << draw(st.integers(count, count + 70))
        else:
            rows[v] = draw(st.integers(-(1 << count), -1))
    return tuple(rows)


def _raw_row_error(check, rows):
    try:
        check(rows)
    except InvalidGraph as exc:
        return type(exc), str(exc)
    return None


class TestMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(perturbed_rows())
    def test_same_raw_row_errors(self, rows):
        assert _raw_row_error(is_hamiltonian, rows) == _raw_row_error(ref_check_rows, rows)


class TestDecision:
    def test_c6_and_broken_c6(self):
        c6 = from_edge_list(6, 1, [(i, (i + 1) % 6) for i in range(6)]).adj
        ans = is_hamiltonian(c6)
        assert ans.hamiltonian
        validate_hamilton_cycle(c6, ans.cycle)
        broken = from_edge_list(6, 1, [(i, i + 1) for i in range(5)]).adj
        ans = is_hamiltonian(broken)
        assert not ans.hamiltonian and ans.cycle is None

    def test_petersen_not_hamiltonian(self):
        assert not is_hamiltonian(PETERSEN).hamiltonian

    def test_accepts_graph_objects(self):
        g = new_complete(3, 2)
        ans = is_hamiltonian(g)
        assert ans.hamiltonian
        validate_hamilton_cycle(g.adj, ans.cycle)

    def test_methods_agree_and_report_their_name(self):
        g, _ = remove_edges(new_complete(4, 2), [(0, 2), (1, 4), (3, 6)])
        bt = is_hamiltonian(g, method="backtracking")
        dp = is_hamiltonian(g, method="dp")
        assert bt.method == "backtracking" and dp.method == "dp"
        assert bt.hamiltonian == dp.hamiltonian
        validate_hamilton_cycle(g.adj, bt.cycle)
        validate_hamilton_cycle(g.adj, dp.cycle)

    def test_auto_backtracks_on_larger_instances(self):
        g = new_complete(7, 2)  # 14 vertices
        ans = is_hamiltonian(g)
        assert ans.method == "backtracking"
        assert ans.hamiltonian
        validate_hamilton_cycle(g.adj, ans.cycle)

    def test_auto_falls_back_to_dp_when_the_budget_runs_out(self):
        # Part 0 joined to everything, nothing among parts 1-3: on a cycle
        # each of the twelve outer vertices sits between two of the four
        # part-0 vertices, so none exists, and plain backtracking takes
        # ~88k nodes to prove it.
        g = from_edge_list(4, 4, [(u, v) for u in range(4) for v in range(4, 16)])
        ans = is_hamiltonian(g)
        dp = is_hamiltonian(g, method="dp")
        assert not ans.hamiltonian and ans.cycle is None
        assert ans.method == "dp"
        assert ans.hamiltonian == dp.hamiltonian
        assert ans.nodes_expanded == _BACKTRACK_BUDGET + dp.nodes_expanded

    def test_vertex_cap(self):
        with pytest.raises(TooLarge):
            is_hamiltonian(new_complete(6, 3))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            is_hamiltonian(new_complete(2, 2), method="montecarlo")

    def test_nodes_expanded_deterministic(self):
        g, _ = remove_edges(new_complete(3, 3), [(0, 3), (0, 4), (1, 6)])
        runs = {is_hamiltonian(g).nodes_expanded for _ in range(4)}
        assert len(runs) == 1
        assert runs.pop() > 0

    @pytest.mark.parametrize(
        ("rows", "want"),
        [
            (PETERSEN, (142, 142, 238)),
            (TWO_K4, (41, 41, 61)),
            (remove_edges(new_complete(3, 3), [(0, 3), (0, 4), (1, 6)])[0].adj,
             (29, 29, 736)),
        ],
        ids=["petersen", "two-k4", "k3x3-minus-3"],
    )
    def test_nodes_expanded_pinned(self, rows, want):
        # The walk's pruning decides these counts, so a change to the
        # reachability test or the degree test shows up here.
        got = tuple(
            is_hamiltonian(rows, method=m).nodes_expanded
            for m in ("auto", "backtracking", "dp")
        )
        assert got == want

    @settings(max_examples=120, deadline=None)
    @given(partite_graphs(max_k=3, max_n=3))
    def test_methods_match_permutation_check(self, g):
        if g.num_vertices > 8:
            return
        truth = perm_hamiltonian(g.adj)
        bt = is_hamiltonian(g, method="backtracking")
        dp = is_hamiltonian(g, method="dp")
        assert bt.hamiltonian == truth
        assert dp.hamiltonian == truth

    @pytest.mark.parametrize(
        ("k", "n", "deletions", "seed"),
        [
            (4, 4, 4, 1),  # within the (4,4) deletion budget of 10
            (4, 4, 10, 2),
            (4, 4, 30, 3),  # over it
            (4, 4, 60, 1),
            (4, 4, 68, 1),
            (7, 2, 5, 4),
            (7, 2, 40, 5),
            (5, 3, 10, 6),
            (5, 3, 50, 7),
        ],
    )
    def test_auto_agrees_with_dp_at_13_to_16_vertices(self, k, n, deletions, seed):
        host = new_complete(k, n)
        g, _ = remove_edges(host, random.Random(seed).sample(host.edges(), deletions))
        auto = is_hamiltonian(g)
        assert auto.method in ("backtracking", "dp")
        assert auto.hamiltonian == is_hamiltonian(g, method="dp").hamiltonian
        if auto.hamiltonian:
            validate_hamilton_cycle(g.adj, auto.cycle)

    @pytest.mark.parametrize("method", ["auto", "backtracking", "dp"])
    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            # a triangle whose vertex 2 also names vertex 3
            ([0b110, 0b101, 0b1011], "vertex 2 has neighbors outside 0..2"),
            ([0b111, 0b101, 0b011], "vertex 0 has a self-loop"),
            ([0b110, 0b001, 0b011], "asymmetric adjacency between 1 and 2"),
        ],
        ids=["out-of-range", "self-loop", "asymmetric"],
    )
    def test_raw_rows_are_checked(self, rows, message, method):
        with pytest.raises(InvalidGraph, match=message):
            is_hamiltonian(rows, method=method)

    @pytest.mark.parametrize(
        "rows", [(), (0,), (0b10, 0b01)], ids=["empty", "lone-vertex", "one-edge"]
    )
    def test_degenerate_rows_answer_no(self, rows):
        ans = is_hamiltonian(rows)
        assert not ans.hamiltonian and ans.cycle is None
        assert ans.nodes_expanded == 0

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ((1,), "vertex 0 has a self-loop"),
            ((2,), "vertex 0 has neighbors outside 0..0"),
            ((-1,), "vertex 0 has neighbors outside 0..0"),
            ((0b10, 0), "asymmetric adjacency between 1 and 0"),
        ],
        ids=["lone-loop", "lone-outside", "lone-negative", "two-asymmetric"],
    )
    def test_degenerate_rows_are_checked(self, rows, message):
        with pytest.raises(InvalidGraph) as info:
            is_hamiltonian(rows)
        assert str(info.value) == message

    def test_min_degree_short_circuit(self):
        g, _ = remove_edges(new_complete(3, 2), [(0, 2), (0, 3), (0, 4)])
        ans = is_hamiltonian(g)
        assert not ans.hamiltonian
        assert ans.nodes_expanded == 0

    def test_disconnected_short_circuit(self):
        # two triangles sharing no vertex
        rows = from_edge_list(
            6, 1, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        ).adj
        ans = is_hamiltonian(rows)
        assert not ans.hamiltonian
        assert ans.nodes_expanded == 0


def _searched_sweep(k, n, min_edges):
    """The sweep's summary with the oracle's search run on every instance
    and no carried cycles, as a reference."""
    host = new_complete(k, n).edges()
    threshold = edge_threshold(k, n)
    ham = agreements = fallbacks = 0
    records, tags = [], {}
    sizes = range(min_edges, len(host) + 1)
    instances = [c for size in sizes for c in combinations(host, size)]
    for edges in instances:
        g = from_edge_list(k, n, edges)
        truth = is_hamiltonian(g).hamiltonian
        ham += truth
        if g.edge_count >= threshold:
            result = kpham.oracle.solve(g)
            for tag in set(result.trace):
                tags[tag] = tags.get(tag, 0) + 1
            fallbacks += "SearchFallback" in result.trace
            cycle = result.cycle
            valid = cycle is not None and is_hamilton_cycle(g.adj, cycle)
            if truth and valid:
                agreements += 1
            else:
                failure = result.failure
                if cycle is not None and not valid:
                    failure = "InvalidCycle"
                records.append(Counterexample(edges, truth, failure))
    return EnumerationSummary(
        k, n, min_edges, len(instances), ham, len(instances) - ham,
        agreements, fallbacks, tuple(records), tuple(sorted(tags.items())),
    )


class TestSweep:
    def test_smallest_case(self):
        s = enumerate_threshold_sweep(2, 2)
        assert (s.k, s.n, s.min_edges) == (2, 2, 4)
        assert s.total == 1  # only the complete bipartite host
        assert s.hamiltonian == 1 and s.non_hamiltonian == 0
        assert s.solver_agreements == 1
        assert s.counterexamples == ()

    def test_single_edge_host_owes_no_cycle(self):
        # solve() owes no cycle at (2, 1), so its TooSmall answer on the
        # lone host edge is not a counterexample.
        s = enumerate_threshold_sweep(2, 1)
        assert s.total == 1
        assert s.non_hamiltonian == 1
        assert s.solver_agreements == 0
        assert s.counterexamples == ()

    def test_3_2_at_threshold(self):
        s = enumerate_threshold_sweep(3, 2)
        assert s.total == 79
        assert s.hamiltonian == 79
        assert s.non_hamiltonian == 0
        assert s.solver_agreements == 79
        assert s.solver_fallbacks == 0
        assert s.counterexamples == ()
        tags = dict(s.branch_tags)
        assert tags["BaseN2"] == 79

    def test_3_2_below_threshold(self):
        s = enumerate_threshold_sweep(3, 2, min_edges=9)
        assert s.total == 299
        assert s.hamiltonian == 263
        assert s.non_hamiltonian == 36

    def test_2_3_at_threshold(self):
        s = enumerate_threshold_sweep(2, 3)
        assert s.total == 10
        assert s.hamiltonian == 10
        assert s.solver_agreements == 10

    def test_jobs_do_not_change_the_answer(self):
        serial = enumerate_threshold_sweep(3, 2, min_edges=9, jobs=1)
        parallel = enumerate_threshold_sweep(3, 2, min_edges=9, jobs=3)
        assert serial == parallel

    def test_host_too_wide(self):
        with pytest.raises(TooLarge, match="host"):
            enumerate_threshold_sweep(5, 2)

    def test_pool_is_clamped_to_chunks_and_cpus(self, pool_widths, monkeypatch):
        serial = enumerate_threshold_sweep(3, 2, jobs=1)
        for cpus in (None, 1):  # one range runs in this process
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert enumerate_threshold_sweep(3, 2, jobs=10_000) == serial
        assert pool_widths.widths == []
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert enumerate_threshold_sweep(3, 2, jobs=10_000) == serial
        assert pool_widths.widths == pool_widths.chunks == [4]
        monkeypatch.setattr(os, "cpu_count", lambda: 1_000_000)
        assert enumerate_threshold_sweep(3, 2, jobs=10_000) == serial
        assert pool_widths.widths[-1] == pool_widths.chunks[-1] == serial.total

    def test_counterexamples_keep_sweep_order(self, pool_widths, monkeypatch):
        # 299 instances of 9 to 12 edges, in combinations order per size;
        # the solver runs on the 79 of at least 10 edges, indices 220-298.
        host = new_complete(3, 2).edges()
        sweep = [c for size in range(9, 13) for c in combinations(host, size)]
        # Under colex order 250 would come before 240. With 8 CPUs,
        # jobs=10_000 cuts the indices at 186, 224 and 261, so the four
        # fall in three ranges.
        failing = [sweep[i] for i in (221, 240, 250, 298)]
        real_solve = kpham.oracle.solve

        def solve(g):
            if tuple(g.edges()) in failing:
                return SolveResult(None, (), "Injected")
            return real_solve(g)

        monkeypatch.setattr(kpham.oracle, "solve", solve)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        serial, three, wide = (
            enumerate_threshold_sweep(3, 2, min_edges=9, jobs=jobs)
            for jobs in (1, 3, 10_000)
        )
        assert pool_widths.chunks == [3, 8]
        assert serial == three == wide
        assert [c.edges for c in serial.counterexamples] == failing
        assert {c.solver_failure for c in serial.counterexamples} == {"Injected"}
        assert serial.solver_agreements == 79 - len(failing)

    def test_search_fallbacks_are_counted(self, monkeypatch):
        # With the closure stalled every threshold instance takes the
        # search; each is still a validated cycle, so it also agrees.
        def stall(*args):
            raise ConstructionFailed("stalled")

        monkeypatch.setattr(constructive, "_closure_cycle", stall)
        s = enumerate_threshold_sweep(3, 2, jobs=1)
        assert s.total == 79
        assert s.solver_fallbacks == s.solver_agreements == s.total
        assert s.branch_tags == (("BaseN2", 79), ("SearchFallback", 79))
        assert s.counterexamples == ()

    def test_invalid_cycle_is_a_counterexample(self, monkeypatch, capsys):
        # The sweep's first instance is the host less its last two edges,
        # 3-4 and 3-5; the injected cycle closes through 5-3.
        host = new_complete(3, 2).edges()
        first = host[:10]
        real_solve = kpham.oracle.solve

        def solve(g):
            if g.edges() == first:
                return SolveResult((0, 2, 4, 1, 5, 3), ("BaseN2", "LemmaClosure"), None)
            return real_solve(g)

        monkeypatch.setattr(kpham.oracle, "solve", solve)
        s = enumerate_threshold_sweep(3, 2, jobs=1)
        assert s.counterexamples == (Counterexample(tuple(first), True, "InvalidCycle"),)
        assert s.solver_agreements == 78
        assert s.solver_fallbacks == 0
        assert run(["enumerate", "3", "2", "--counterexamples"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "counterexample oracle=yes solver=InvalidCycle"
            " edges=0-2;0-3;0-4;0-5;1-2;1-3;1-4;1-5;2-4;2-5"
        )

    def test_min_edges_above_host_is_empty(self):
        s = enumerate_threshold_sweep(2, 2, min_edges=5)
        assert s.total == 0
        assert s.branch_tags == ()
        assert enumerate_threshold_sweep(2, 2, min_edges=5, jobs=2) == s


class TestCarriedCycles:
    """At or above the threshold the sweep certifies an instance with an
    oracle cycle carried from an earlier instance when paths accepts it,
    and searches only the rest."""

    @pytest.mark.parametrize(("k", "n", "min_edges"), [(3, 2, 9), (4, 2, 20)])
    def test_summary_equals_searching_every_instance(
        self, k, n, min_edges, pool_widths, monkeypatch
    ):
        want = _searched_sweep(k, n, min_edges)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for jobs in (1, 3):
            assert enumerate_threshold_sweep(k, n, min_edges, jobs=jobs) == want
        assert pool_widths.chunks == [3]

    def test_only_paths_certifies(self):
        # K_{2,2} less (1, 3) is a path: the carried 4-cycle through (1, 3)
        # is rejected, and the search decides "no".
        g, _ = remove_edges(new_complete(2, 2), [(1, 3)])
        cycle = (0, 2, 1, 3)
        ans = is_hamiltonian(g, carried=cycle)
        assert (ans.hamiltonian, ans.method) == (False, "backtracking")
        # On the host paths accepts it, and it decides without a search.
        ans = is_hamiltonian(new_complete(2, 2), carried=cycle)
        assert (ans.hamiltonian, ans.cycle, ans.method, ans.nodes_expanded) == (
            True, cycle, "carried", 0
        )

    def test_found_cycle_goes_to_the_front_within_the_cap(self):
        # Each instance is one Hamilton cycle of K_{3,3,3} and nothing else,
        # so no other cycle fits it and the search finds exactly that one.
        host = _Host(3, 3)
        every_id = frozenset(range(len(host.edges)))
        adj = new_complete(3, 3).adj
        cycles = []
        for tail in permutations(range(1, 9)):
            cycle = canonical_cycle((0, *tail))
            if is_hamilton_cycle(adj, cycle) and cycle not in cycles:
                cycles.append(cycle)
            if len(cycles) == _CARRIED_CYCLES + 8:
                break

        def missing(cycle):
            kept = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
            return every_id - {i for i, e in enumerate(host.edges) if e in kept}

        def decide(cycle, carry=True):
            gone = missing(cycle)
            answer = host.decide(host.instance(gone), gone, carry)
            assert (answer.hamiltonian, answer.cycle) == (True, cycle)
            return answer.method

        def order():  # most recently useful first
            return list(reversed(host.carried))

        assert all(decide(c) == "backtracking" for c in cycles)
        assert order() == cycles[:7:-1]
        assert host.carried[cycles[20]] == every_id - missing(cycles[20])
        # A carried cycle that fits decides and moves to the front.
        assert decide(cycles[20]) == "carried"
        assert order() == [cycles[20]] + [c for c in cycles[:7:-1] if c != cycles[20]]
        # An evicted cycle is searched again and evicts the least recent.
        assert decide(cycles[0]) == "backtracking"
        assert order() == [cycles[0], cycles[20]] + [
            c for c in cycles[:8:-1] if c != cycles[20]
        ]
        # Without carry nothing is offered or kept.
        kept = order()
        assert decide(cycles[20], carry=False) == "backtracking"
        assert order() == kept
        # Every carried cycle fits the host; the most recently useful decides.
        answer = host.decide(host.instance(()), (), True)
        assert (answer.method, answer.cycle) == ("carried", cycles[0])
        assert order() == kept

    def test_oracle_searches_pinned(self, monkeypatch):
        real = kpham.oracle.is_hamiltonian
        methods = []

        def counting(g, method="auto", carried=None):
            answer = real(g, method, carried)
            methods.append((g.edge_count, answer.method))
            return answer

        monkeypatch.setattr(kpham.oracle, "is_hamiltonian", counting)
        s = enumerate_threshold_sweep(4, 2)
        assert s.total == s.hamiltonian == 12951
        # One oracle call per instance; all but 130 are decided by a
        # carried cycle.
        assert len(methods) == 12951
        assert sum(m != "carried" for _, m in methods) == 130
        # Below the threshold every instance is searched: at (3,2) from 9
        # edges, the 220 instances with 9 and the 12 of the 79 at or above.
        methods.clear()
        s = enumerate_threshold_sweep(3, 2, min_edges=9)
        below = [m for m_edges, m in methods if m_edges < edge_threshold(3, 2)]
        assert len(methods) == s.total == 299
        assert len(below) == 220 and "carried" not in below
        assert sum(m != "carried" for _, m in methods) == 232

    def test_screen_offers_only_cycles_paths_accepts(self, monkeypatch):
        # A carried cycle is offered only when none of its host edges is
        # missing, so paths rejects no carried cycle: each instance costs
        # one check of the solver's cycle, plus one of the carried cycle
        # unless the oracle searched it (130 instances).
        real = kpham.oracle.is_hamilton_cycle
        verdicts = []

        def counting(adj, seq):
            verdicts.append(real(adj, seq))
            return verdicts[-1]

        monkeypatch.setattr(kpham.oracle, "is_hamilton_cycle", counting)
        s = enumerate_threshold_sweep(4, 2)
        assert s.total == s.solver_agreements == 12951
        assert all(verdicts)
        assert len(verdicts) == 2 * 12951 - 130

    @pytest.mark.parametrize(("k", "n", "min_edges"), [(3, 2, 9), (4, 2, None)])
    def test_failing_solver_moves_no_oracle_count(self, k, n, min_edges, monkeypatch):
        # Carried cycles come from the oracle alone, so a solver that
        # builds nothing leaves the oracle's tallies where they were.
        want = enumerate_threshold_sweep(k, n, min_edges)
        monkeypatch.setattr(
            kpham.oracle, "solve", lambda g: SolveResult(None, (), "Injected")
        )
        got = enumerate_threshold_sweep(k, n, min_edges)
        assert (got.hamiltonian, got.non_hamiltonian) == (
            want.hamiltonian, want.non_hamiltonian
        )
        assert got.solver_agreements == 0
        assert len(got.counterexamples) == want.solver_agreements
        assert all(c.oracle_hamiltonian for c in got.counterexamples)


def _module_tree(name):
    return ast.parse((Path(kpham.oracle.__file__).parent / f"{name}.py").read_text())


class TestIndependence:
    """The oracle checks the solver, so neither may lean on the other's
    code: a bug in one could then hide in the other."""

    def test_solver_imports_no_checker(self):
        for node in ast.walk(_module_tree("constructive")):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            parts = {part for name in names for part in name.split(".")}
            assert not parts & {"oracle", "extremal"}, ast.unparse(node)

    def test_decisions_use_nothing_from_the_solver(self):
        tree = _module_tree("oracle")
        solver_names = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "constructive"
            for alias in node.names
        }
        assert "solve" in solver_names  # the sweep runs the solver it checks
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        # the decision procedures, the carried-cycle keeper, and every
        # function of the module they reach
        todo = ["is_hamiltonian", "_reach", "_backtrack", "_held_karp", "_Host"]
        seen = set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            used = {node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
            assert not used & solver_names, f"{name} uses {sorted(used & solver_names)}"
            todo.extend(used & defs.keys())
