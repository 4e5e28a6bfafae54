"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at toy size (run.TOY), end to end and traced, and
checks that each run passes its gates and prints exactly the metrics and
units BENCHMARK.json names. It also checks the tracer against the program:
the traced toy sweep's tag and fallback counts must equal the sweep
summary's. Last, it checks that run.py refuses to run (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and perfbench/.

This file sits outside the repository's pytest testpaths on purpose: it
checks the benchmark, not kpham. It takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def toy_run(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, size=run.TOY)
    return rc, json.loads(out.getvalue().strip().split("\n")[-1])


def check_runs(spec: dict, problems: list[str]) -> dict:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    traced = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            rc, result = toy_run(workload, trace)
            label = f"{workload} --trace {trace}"
            if rc != 0 or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: rc={rc} correct={result['correct']} failed={result['failed']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
                problems.append(f"{label}: malformed result keys or attempted < 1")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                problems.append(f"{label}: metrics differ; missing {missing[:5]} extra {extra[:5]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or m["value"] < 0:
                    problems.append(f"{label}: {name} = {m['value']!r}")
                if trace == 0 and m["value"] <= 0:
                    problems.append(f"{label}: end-to-end {name} is not positive")
            if trace:
                traced[workload] = {name: m["value"] for name, m in result["metrics"].items()}
    return traced


def check_tracer(traced: dict, problems: list[str]) -> None:
    summary = run.load_kpham()["oracle"].enumerate_threshold_sweep(*run.TOY.sweep)
    tags = dict(summary.branch_tags)
    sweep = traced["sweep-3x3"]
    for tag in run.TAGS:
        if sweep[f"constructive.tag.{tag}"] != tags.get(tag, 0):
            problems.append(f"traced sweep counts {tag} differently from the summary")
    if sweep["constructive.fallbacks"] != summary.solver_fallbacks:
        problems.append("traced sweep counts fallbacks differently from the summary")
    for workload in ("sweep-3x3", "sweep-3x3-jobs2"):
        if traced[workload]["oracle.is_hamiltonian.calls"] != summary.total:
            problems.append(f"{workload}: oracle spans missing (pool workers not merged?)")
    solve = traced["solve-n64"]
    per_shape = sum(v for k, v in solve.items() if k.count(".") == 3 and k.endswith(".fallbacks"))
    if per_shape != solve["constructive.fallbacks"]:
        problems.append("solve-n64 per-shape fallbacks do not add up")


def check_refusal(problems: list[str]) -> None:
    """run.py must fail, without a result, where there are no sources."""
    (HERE / "traces").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "traces") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("traces", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-3x3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py ran without kpham sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    traced = check_runs(spec, problems)
    if not problems:
        check_tracer(traced, problems)
    check_refusal(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
