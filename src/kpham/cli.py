"""Command-line interface.

Subcommands cover generation (gen-complete, gen-tight, gen-random),
reporting (check), solving (solve, validate, oracle), and desk-scale
verification (enumerate, faults). Graphs travel as the plain-text format
of graphio; `-` means stdin. Exit status: 0 for success including decided
negatives, 1 for domain errors (reported on stderr), 2 for usage errors.
All output is deterministic for a fixed command line and input.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .conditions import evaluate
from .constructive import solve, solve_theorem11
from .errors import InvalidCycle, InvalidPath, KphamError
from .extremal import fault_tolerance_trial, random_graph_at_edge_count, tight_non_hamiltonian
from .graph import new_complete
from .graphio import parse_graph, write_graph
from .oracle import enumerate_threshold_sweep, is_hamiltonian
from .paths import validate_hamilton_cycle


def _read_graph(path: str):
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _cmd_gen_complete(args: argparse.Namespace) -> int:
    print(write_graph(new_complete(args.k, args.n)), end="")
    return 0


def _cmd_gen_tight(args: argparse.Namespace) -> int:
    print(write_graph(tight_non_hamiltonian(args.k, args.n)), end="")
    return 0


def _cmd_gen_random(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    g = random_graph_at_edge_count(args.k, args.n, args.edges, rng)
    print(write_graph(g), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = evaluate(_read_graph(args.path))
    if args.machine:
        print(report.as_record())
    else:
        print(report.as_block(), end="")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    result = solve_theorem11(g) if args.theorem11 else solve(g)
    print(result.serialize(), end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    try:
        cycle = [int(tok) for tok in args.cycle.split()]
    except ValueError:
        raise KphamError(f"cycle must be whitespace-separated integers: {args.cycle!r}")
    try:
        validate_hamilton_cycle(g.adj, cycle)
    except (InvalidCycle, InvalidPath) as exc:
        print(f"invalid: {exc}")
        return 0
    print("valid")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    answer = is_hamiltonian(g, method=args.method)
    print(f"hamiltonian {'yes' if answer.hamiltonian else 'no'}")
    if answer.cycle is not None:
        print("cycle " + " ".join(map(str, answer.cycle)))
    print(f"method {answer.method} nodes {answer.nodes_expanded}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    summary = enumerate_threshold_sweep(
        args.k, args.n, min_edges=args.min_edges, jobs=args.jobs
    )
    print(f"sweep k={summary.k} n={summary.n} min_edges={summary.min_edges}")
    print(f"total {summary.total}")
    print(f"hamiltonian {summary.hamiltonian}")
    print(f"non_hamiltonian {summary.non_hamiltonian}")
    print(f"solver_agreements {summary.solver_agreements}")
    print(f"solver_fallbacks {summary.solver_fallbacks}")
    print(f"counterexamples {len(summary.counterexamples)}")
    tag_text = ",".join(f"{tag}={count}" for tag, count in summary.branch_tags)
    print(f"tags {tag_text}")
    if args.counterexamples:
        for record in summary.counterexamples:
            edge_text = ";".join(f"{u}-{v}" for u, v in record.edges)
            oracle_text = "yes" if record.oracle_hamiltonian else "no"
            solver_text = record.solver_failure or "ok"
            print(
                f"counterexample oracle={oracle_text}"
                f" solver={solver_text} edges={edge_text}"
            )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if not args.exhaustive and args.seed is None:
        raise KphamError("random mode requires --seed (or pass --exhaustive)")
    report = fault_tolerance_trial(
        args.k,
        args.n,
        args.deletions,
        trials=args.trials,
        seed=args.seed,
        exhaustive=args.exhaustive,
        allow_over_budget=args.allow_over_budget,
        jobs=args.jobs,
    )
    seed_text = "-" if report.seed is None else str(report.seed)
    print(
        f"faults k={report.k} n={report.n} deletions={report.deletions}"
        f" budget={report.budget} mode={report.mode} seed={seed_text}"
        f" rng={report.rng}"
    )
    print(f"trials {report.trials}")
    print(f"survived {report.survived}")
    print(f"failed {report.failed}")
    print(f"fallbacks {report.fallbacks}")
    print(f"disagreements {report.disagreements}")
    if args.failures:
        for dropped in report.failures:
            print("failure " + ";".join(f"{u}-{v}" for u, v in dropped))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args never changes the parser."""
    parser = argparse.ArgumentParser(
        prog="kpham",
        description="Hamilton cycles in balanced k-partite graphs at the"
        " edge threshold",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-complete", help="write the complete host graph")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gen_complete)

    p = sub.add_parser(
        "gen-tight", help="write the sharpest non-Hamiltonian instance"
    )
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gen_tight)

    p = sub.add_parser("gen-random", help="write a random instance")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("edges", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("check", help="report thresholds and conditions")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--machine", action="store_true", help="one-line output")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="construct a Hamilton cycle")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument(
        "--theorem11",
        action="store_true",
        help="also accept one edge below the threshold when min degree >= 2",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="validate a claimed Hamilton cycle")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--cycle", required=True, help="whitespace-separated ids")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("oracle", help="decide Hamiltonicity exhaustively")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument(
        "--method",
        choices=("auto", "backtracking", "dp"),
        default="auto",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "enumerate", help="sweep all instances above an edge count"
    )
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--min-edges", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--counterexamples",
        action="store_true",
        help="print each disagreement",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("faults", help="random or exhaustive edge-fault trials")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--deletions", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-over-budget", action="store_true")
    p.add_argument(
        "--failures", action="store_true", help="print each failing deletion set"
    )
    p.set_defaults(func=_cmd_faults)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KphamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
