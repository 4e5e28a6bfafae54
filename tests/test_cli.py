"""End-to-end CLI tests through run(), capturing stdout/stderr in-process."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpham
from kpham import (
    new_complete,
    parse_graph,
    remove_edges,
    validate_hamilton_cycle,
    write_graph,
)
from kpham.cli import run


def fresh_run(*argv):
    """Run kpham in a new interpreter; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(kpham.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "kpham.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(write_graph(g))
    return str(path)


class TestGenerators:
    def test_gen_complete(self, capsys):
        code, out, err = invoke(capsys, "gen-complete", "2", "2")
        assert code == 0 and err == ""
        assert out == "kpartite 2 2 4\n0 2\n0 3\n1 2\n1 3\n"

    def test_gen_tight_golden(self, capsys):
        code, out, _ = invoke(capsys, "gen-tight", "2", "2")
        assert code == 0
        assert out == "kpartite 2 2 3\n0 2\n1 2\n1 3\n"

    def test_gen_tight_too_small(self, capsys):
        code, out, err = invoke(capsys, "gen-tight", "2", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_gen_random_is_seeded(self, capsys):
        code, first, _ = invoke(capsys, "gen-random", "3", "2", "10", "--seed", "5")
        assert code == 0
        _, second, _ = invoke(capsys, "gen-random", "3", "2", "10", "--seed", "5")
        assert first == second
        g = parse_graph(first)
        assert g.edge_count == 10

    def test_gen_random_requires_seed(self, capsys):
        code, _, err = invoke(capsys, "gen-random", "3", "2", "10")
        assert code == 2


class TestCheck:
    def test_block_output(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, out, _ = invoke(capsys, "check", path)
        assert code == 0
        lines = out.splitlines()
        assert "k=2" in lines and "n=2" in lines
        assert "edge_count=4" in lines
        assert "meets_theorem1=true" in lines

    def test_machine_output_single_line(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(3, 2))
        code, out, _ = invoke(capsys, "check", path, "--machine")
        assert code == 0
        assert out.count("\n") == 1
        assert "sigma=inf" in out

    def test_machine_output_below_three_vertices(self, capsys, tmp_path):
        # One edge on two vertices: Ore and Theorem 2 are not evaluated.
        path = graph_file(tmp_path, new_complete(2, 1))
        code, out, _ = invoke(capsys, "check", "--machine", path)
        assert code == 0
        assert out == (
            "k=2 n=1 edge_count=1 min_degree=1 sigma=inf edge_threshold_t1=1"
            " meets_theorem1=true meets_ore=false meets_theorem2_edges=false"
            " meets_theorem4_min_degree=true meets_theorem5_sigma=true"
            " meets_theorem11=false violation_theorem11=0\n"
        )

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(write_graph(new_complete(2, 2)))
        )
        code, out, _ = invoke(capsys, "check", "-")
        assert code == 0
        assert "edge_count=4" in out


class TestSolve:
    def test_solve_complete(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, out, _ = invoke(capsys, "solve", path)
        assert code == 0
        assert out == "cycle 0 2 1 3\ntrace BaseK2,LemmaClosure\n"

    def test_solve_below_threshold_is_exit_zero(self, capsys, tmp_path):
        g = parse_graph("kpartite 2 2 3\n0 2\n1 2\n1 3\n")
        path = graph_file(tmp_path, g)
        code, out, _ = invoke(capsys, "solve", path)
        assert code == 0
        assert out == "none HypothesisNotMet\ntrace\n"

    def test_solve_theorem11_flag(self, capsys, tmp_path):
        # one edge below the (3, 2) threshold with every degree >= 2
        text = (
            "kpartite 3 2 9\n0 4\n0 5\n1 2\n1 3\n1 5\n2 4\n2 5\n3 4\n3 5\n"
        )
        path = graph_file(tmp_path, parse_graph(text))
        code, out, _ = invoke(capsys, "solve", path, "--theorem11")
        assert code == 0
        assert out.startswith("cycle ")
        assert out.endswith("\ntrace BaseN2,LemmaClosure\n")
        # without the flag the same graph is refused
        code, out, _ = invoke(capsys, "solve", path)
        assert out == "none HypothesisNotMet\ntrace\n"

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kpartite 2 2 1\n0 1\n")
        code, out, err = invoke(capsys, "solve", str(path))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "solve", str(tmp_path / "absent.txt"))
        assert code == 1
        assert err.startswith("error: ")


class TestValidate:
    def test_valid(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, out, _ = invoke(capsys, "validate", path, "--cycle", "0 2 1 3")
        assert code == 0
        assert out == "valid\n"

    def test_invalid_explains(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, out, _ = invoke(capsys, "validate", path, "--cycle", "0 1 2 3")
        assert code == 0
        assert out.startswith("invalid: ")

    def test_junk_cycle_text(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, _, err = invoke(capsys, "validate", path, "--cycle", "0 two 1 3")
        assert code == 1
        assert "error:" in err


class TestOracle:
    def test_positive(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, out, _ = invoke(capsys, "oracle", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hamiltonian yes"
        assert lines[1].startswith("cycle ")
        assert lines[2].startswith("method ")

    def test_negative(self, capsys, tmp_path):
        g = parse_graph("kpartite 2 2 3\n0 2\n1 2\n1 3\n")
        path = graph_file(tmp_path, g)
        code, out, _ = invoke(capsys, "oracle", path, "--method", "dp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hamiltonian no"
        assert lines[1].startswith("method dp")

    def test_auto_backtracks_on_16_vertices(self, capsys, tmp_path):
        g, _ = remove_edges(new_complete(4, 4), [(0, 4), (1, 9), (6, 14), (11, 12)])
        path = graph_file(tmp_path, g)
        code, out, _ = invoke(capsys, "oracle", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hamiltonian yes"
        assert lines[2].startswith("method backtracking nodes ")
        validate_hamilton_cycle(g.adj, [int(v) for v in lines[1].split()[1:]])

    def test_bad_method_is_usage_error(self, capsys, tmp_path):
        path = graph_file(tmp_path, new_complete(2, 2))
        code, _, _ = invoke(capsys, "oracle", path, "--method", "guess")
        assert code == 2


class TestEnumerate:
    def test_golden_2_2(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "2", "2")
        assert code == 0
        assert out == (
            "sweep k=2 n=2 min_edges=4\n"
            "total 1\n"
            "hamiltonian 1\n"
            "non_hamiltonian 0\n"
            "solver_agreements 1\n"
            "solver_fallbacks 0\n"
            "counterexamples 0\n"
            "tags BaseK2=1,LemmaClosure=1\n"
        )

    def test_jobs_flag_byte_identical(self, capsys):
        _, serial, _ = invoke(capsys, "enumerate", "3", "2", "--jobs", "1")
        _, parallel, _ = invoke(capsys, "enumerate", "3", "2", "--jobs", "2")
        assert serial == parallel

    def test_empty_sweep_at_two_jobs(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "2", "2", "--min-edges", "5", "--jobs", "2"
        )
        assert code == 0
        assert "total 0\n" in out

    def test_too_wide_host(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "5", "2")
        assert code == 1
        assert "error:" in err


class TestFaults:
    def test_random_report(self, capsys):
        code, out, _ = invoke(
            capsys, "faults", "3", "2", "--deletions", "2",
            "--trials", "20", "--seed", "9",
        )
        assert code == 0
        assert out == (
            "faults k=3 n=2 deletions=2 budget=2 mode=random seed=9 rng=mt19937\n"
            "trials 20\n"
            "survived 20\n"
            "failed 0\n"
            "fallbacks 0\n"
            "disagreements 0\n"
        )

    def test_exhaustive_failures_listing(self, capsys):
        code, out, _ = invoke(
            capsys, "faults", "3", "2", "--deletions", "3",
            "--exhaustive", "--allow-over-budget", "--failures",
        )
        assert code == 0
        lines = out.splitlines()
        assert "failed 36" in lines
        assert sum(1 for ln in lines if ln.startswith("failure ")) == 36

    def test_seed_required_without_exhaustive(self, capsys):
        code, _, err = invoke(capsys, "faults", "3", "2", "--deletions", "2")
        assert code == 1
        assert "requires --seed" in err

    def test_over_budget_needs_flag(self, capsys):
        code, _, err = invoke(
            capsys, "faults", "3", "2", "--deletions", "3",
            "--trials", "5", "--seed", "1",
        )
        assert code == 1
        assert "budget" in err


    def test_bad_shape_named_before_budget(self, capsys):
        code, out, err = invoke(
            capsys, "faults", "2", "-1", "--deletions", "0", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == "error: need at least 1 vertex per part, got n=-1\n"


def test_parser_reuse_leaks_no_state(capsys, tmp_path):
    # one edge below the (3, 2) threshold: only --theorem11 solves it, so a
    # flag surviving into the next call would change that call's output
    text = "kpartite 3 2 9\n0 4\n0 5\n1 2\n1 3\n1 5\n2 4\n2 5\n3 4\n3 5\n"
    path = graph_file(tmp_path, parse_graph(text))
    sequence = [
        ["solve", "--theorem11", path],
        ["solve", path],
        ["solve", path, "--no-such-flag"],
        ["check", "--machine", path],
        ["solve", path],
    ]
    outcomes = [invoke(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in outcomes] == [0, 0, 2, 0, 0]
    assert outcomes[0][1] != outcomes[1][1]
    for argv, outcome in zip(sequence, outcomes):
        assert outcome == fresh_run(*argv)


def test_no_command_is_usage_error(capsys):
    code, _, _ = invoke(capsys)
    assert code == 2
