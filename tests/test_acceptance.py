"""Acceptance suite.

Each test covers one numbered criterion, prints a single pass/fail line
(visible in the report section of the run output), and enforces the
stated tolerance with asserts. Timings are wall-clock budgets, generous
enough for slow CI hosts; the functional tolerances are exact.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from kpham import (
    close_hamilton_path,
    edge_threshold,
    enumerate_threshold_sweep,
    fault_tolerance_trial,
    is_hamiltonian,
    new_complete,
    ore_build_cycle,
    remove_edges,
    solve,
    solve_theorem11,
    tight_non_hamiltonian,
    validate_hamilton_cycle,
)
from kpham.cli import run


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_3_2():
    return _timed(enumerate_threshold_sweep, 3, 2)


@pytest.fixture(scope="module")
def sweep_2_3():
    return _timed(enumerate_threshold_sweep, 2, 3)


@pytest.fixture(scope="module")
def sweep_4_2():
    return _timed(enumerate_threshold_sweep, 4, 2)


@pytest.fixture(scope="module")
def sweep_3_3():
    return _timed(enumerate_threshold_sweep, 3, 3)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_exhaustive_3_2(sweep_3_2):
    summary, elapsed = sweep_3_2
    ok = (
        summary.total == 79
        and summary.hamiltonian == 79
        and summary.non_hamiltonian == 0
        and summary.solver_agreements == 79
        and summary.counterexamples == ()
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"(3,2) sweep at >=10 edges: {summary.hamiltonian}/{summary.total}"
        f" hamiltonian, {summary.solver_agreements} solver agreements"
        f" [{elapsed:.2f}s < 1s]",
    )
    assert ok


def test_criterion_02_exhaustive_2_3(sweep_2_3):
    summary, elapsed = sweep_2_3
    ok = (
        summary.total == 10
        and summary.hamiltonian == 10
        and summary.solver_agreements == 10
        and summary.solver_fallbacks == 0
        and summary.counterexamples == ()
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"(2,3) sweep at >=8 edges: {summary.hamiltonian}/{summary.total}"
        f" hamiltonian, {summary.solver_agreements} solver agreements,"
        f" {summary.solver_fallbacks} fallbacks [{elapsed:.2f}s < 1s]",
    )
    assert ok


def test_criterion_03_exhaustive_4_2(sweep_4_2):
    # Every (4,2) threshold graph meets Chvatal's degree-sequence condition,
    # so the all-pairs closure builds each cycle; zero fallbacks here shows
    # it never stalls.
    summary, elapsed = sweep_4_2
    ok = (
        summary.total == 12951
        and summary.hamiltonian == 12951
        and summary.non_hamiltonian == 0
        and summary.solver_agreements == 12951
        and summary.solver_fallbacks == 0
        and summary.counterexamples == ()
        and elapsed < 120.0
    )
    _report(
        3,
        ok,
        f"(4,2) sweep at >=20 edges: {summary.hamiltonian}/{summary.total}"
        f" hamiltonian, {summary.solver_agreements} solver agreements,"
        f" {summary.solver_fallbacks} fallbacks [{elapsed:.1f}s < 120s]",
    )
    assert ok


def test_criterion_04_sharpness():
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
    start = time.perf_counter()
    results = []
    for k, n in shapes:
        g = tight_non_hamiltonian(k, n)
        results.append(
            g.edge_count == edge_threshold(k, n) - 1
            and not is_hamiltonian(g).hamiltonian
        )
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 10.0
    _report(
        4,
        ok,
        f"tight instances at threshold-1 non-hamiltonian for"
        f" {sum(results)}/{len(shapes)} shapes [{elapsed:.2f}s < 10s]",
    )
    assert ok


def test_criterion_05_one_edge_short_with_degree_two():
    # every 9-edge subgraph of the complete (3, 2) host with min degree 2:
    # the oracle is the ground truth and the solver must match it exactly.
    # Genuinely non-hamiltonian members are reported as findings about the
    # relaxed one-edge-short condition, not as solver failures.
    start = time.perf_counter()
    host = new_complete(3, 2)
    host_edges = host.edges()
    checked = agreements = hamiltonian = 0
    findings = []
    for drop in combinations(host_edges, 3):
        g, _ = remove_edges(host, drop)
        if min(map(int.bit_count, g.adj)) < 2:
            continue
        checked += 1
        truth = is_hamiltonian(g)
        result = solve_theorem11(g)
        if (result.cycle is not None) == truth.hamiltonian:
            agreements += 1
        if truth.hamiltonian:
            hamiltonian += 1
            validate_hamilton_cycle(g.adj, result.cycle)
        else:
            findings.append(g.edges())
    elapsed = time.perf_counter() - start
    for edges in findings:
        text = ";".join(f"{u}-{v}" for u, v in edges)
        print(
            "finding: nine-edge min-degree-2 instance with no Hamilton"
            f" cycle — {text}"
        )
    ok = checked == 196 and agreements == checked and elapsed < 5.0
    _report(
        5,
        ok,
        f"(3,2) nine-edge min-degree-2 census: {agreements}/{checked}"
        f" solver-oracle agreements ({hamiltonian} hamiltonian,"
        f" {len(findings)} findings) [{elapsed:.2f}s < 5s]",
    )
    assert ok


def test_criterion_06_fault_tolerance_4_3():
    report, elapsed = _timed(
        fault_tolerance_trial, 4, 3, deletions=7, trials=1000, seed=20260819
    )
    ok = (
        report.trials == 1000
        and report.survived == 1000
        and report.failed == 0
        and report.disagreements == 0
        and elapsed < 30.0
    )
    _report(
        6,
        ok,
        f"(4,3) with 7 deleted edges: {report.survived}/{report.trials}"
        f" trials hamiltonian, {report.disagreements} oracle disagreements"
        f" [{elapsed:.1f}s < 30s]",
    )
    assert ok


def test_criterion_07_path_closure_suite():
    rng = random.Random(71)
    start = time.perf_counter()
    closed = 0
    while closed < 500:
        nv = rng.randrange(4, 15)
        path = list(range(nv))
        rng.shuffle(path)
        edges = {tuple(sorted(p)) for p in zip(path, path[1:])}
        extras = rng.randrange(0, nv)
        for _ in range(extras):
            u, v = rng.sample(range(nv), 2)
            edges.add((min(u, v), max(u, v)))
        rows = [0] * nv
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        ends = (path[0], path[-1])
        # force the degree-sum hypothesis by wiring the ends further in
        pool = [w for w in range(nv) if w not in ends]
        rng.shuffle(pool)
        while rows[ends[0]].bit_count() + rows[ends[1]].bit_count() < nv:
            end = ends[rng.randrange(2)]
            free = [w for w in pool if not rows[end] >> w & 1 and w != end]
            if not free:
                break
            w = free[0]
            rows[end] |= 1 << w
            rows[w] |= 1 << end
        if rows[ends[0]].bit_count() + rows[ends[1]].bit_count() < nv:
            continue
        cycle = close_hamilton_path(rows, path)
        validate_hamilton_cycle(rows, cycle)
        closed += 1
    elapsed = time.perf_counter() - start
    ok = closed == 500 and elapsed < 5.0
    _report(
        7,
        ok,
        f"path closure: {closed}/500 generated Hamilton paths closed and"
        f" validated [{elapsed:.2f}s < 5s]",
    )
    assert ok


def test_criterion_08_ore_suite():
    rng = random.Random(83)
    start = time.perf_counter()
    built = 0
    while built < 500:
        nv = rng.randrange(4, 15)
        edges = set()
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < 0.55:
                    edges.add((u, v))
        rows = [0] * nv
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # repair to the degree-sum condition by wiring every violator
        changed = True
        while changed:
            changed = False
            for u in range(nv):
                for v in range(u + 1, nv):
                    if rows[u] >> v & 1:
                        continue
                    if rows[u].bit_count() + rows[v].bit_count() < nv:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        changed = True
        cycle = ore_build_cycle(rows)
        validate_hamilton_cycle(rows, cycle)
        built += 1
    elapsed = time.perf_counter() - start
    ok = built == 500 and elapsed < 10.0
    _report(
        8,
        ok,
        f"degree-sum closure: {built}/500 graphs (N <= 14) yielded"
        f" validating cycles [{elapsed:.2f}s < 10s]",
    )
    assert ok


def test_criterion_09_determinism(capsys, sweep_3_2):
    g, _ = remove_edges(new_complete(4, 3), [(0, 3), (1, 7), (2, 10), (5, 9)])
    solve_outputs = {solve(g).serialize() for _ in range(5)}

    run(["enumerate", "3", "2", "--jobs", "1"])
    first = capsys.readouterr().out
    run(["enumerate", "3", "2", "--jobs", "2"])
    second = capsys.readouterr().out
    run(["enumerate", "3", "2", "--jobs", "3"])
    third = capsys.readouterr().out

    resummary = enumerate_threshold_sweep(3, 2)
    ok = (
        len(solve_outputs) == 1
        and first == second == third
        and resummary == sweep_3_2[0]
    )
    _report(
        9,
        ok,
        "repeated solve and enumerate runs byte-identical"
        f" (jobs 1/2/3 agree: {first == second == third})",
    )
    assert ok


def test_criterion_10_branch_telemetry(sweep_3_2, sweep_2_3, sweep_4_2):
    summaries = {
        "(3,2)": sweep_3_2[0],
        "(2,3)": sweep_2_3[0],
        "(4,2)": sweep_4_2[0],
    }
    fractions = {}
    for label, s in summaries.items():
        fallback_free = (s.total - s.solver_fallbacks) / s.total
        fractions[label] = fallback_free
        tag_text = ", ".join(f"{tag}={count}" for tag, count in s.branch_tags)
        print(
            f"telemetry {label}: fallback-free {fallback_free:.4f}"
            f" ({s.total - s.solver_fallbacks}/{s.total}); tags: {tag_text}"
        )
    # the counts must be reproducible run to run
    again = enumerate_threshold_sweep(4, 2)
    ok = again.branch_tags == summaries["(4,2)"].branch_tags and all(
        0.0 <= f <= 1.0 for f in fractions.values()
    )
    _report(
        10,
        ok,
        "fallback-free fractions "
        + ", ".join(f"{lbl} {frac:.4f}" for lbl, frac in fractions.items())
        + " (reported, reproducible; no hard threshold)",
    )
    assert ok


def test_criterion_11_exhaustive_3_3(sweep_3_3):
    # (3,3) is the only k >= 3, n >= 2 shape with threshold graphs whose
    # sorted degrees have some d_i <= i < N/2 (108 full-budget deletion
    # sets; Chvatal's condition still holds), and the all-pairs closure
    # must build every cycle with no fallback.
    summary, elapsed = sweep_3_3
    ok = (
        summary.total == 20854
        and summary.hamiltonian == 20854
        and summary.counterexamples == ()
        and summary.solver_fallbacks == 0
        and elapsed < 180.0
    )
    tag_text = ", ".join(f"{tag}={count}" for tag, count in summary.branch_tags)
    print(f"telemetry (3,3): fallbacks {summary.solver_fallbacks}; tags: {tag_text}")
    _report(
        11,
        ok,
        f"(3,3) sweep at >=23 edges: {summary.hamiltonian}/{summary.total}"
        f" hamiltonian, {len(summary.counterexamples)} counterexamples,"
        f" {summary.solver_fallbacks} fallbacks [{elapsed:.1f}s < 180s]",
    )
    assert ok
