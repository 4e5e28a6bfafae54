"""kpham benchmark: end-to-end metrics per workload, or a traced run that
splits the work by layer.

    python3 perfbench/run.py --workload solve-n64 --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports kpham from ./src and
nothing else. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the run
context. The exit status is 0 only when every correctness gate passed.

Workloads (METRICS.md says why each one is here):

  solve-n64        closed loop, one client: kpham.cli.run(["solve", "-"])
                   in-process on one instance text per request
  sweep-3x3        enumerate_threshold_sweep(3, 3), jobs=1, called repeatedly
  faults-4x4       fault_tolerance_trial(4, 4, 10, trials=1, seed=base + j)
                   with the oracle cross-check, call j = 0, 1, 2, ...
  sweep-3x3-jobs2  the same sweep at jobs=2

--trace 0 measures for --seconds seconds, in whole passes over the
workload's unit, and reports the end-to-end metrics. --trace 1 runs one
fixed unit untraced and then again with span wrappers installed (spans.py),
requires both to give the same outputs, and reports the per-layer metrics;
it writes its spans to perfbench/traces/. The traced sweep runs also time
the sweep untraced at the other jobs value and require the same summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans  # perfbench/ is sys.path[0] when this file runs as a script

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"

WORKLOADS = ("solve-n64", "sweep-3x3", "faults-4x4", "sweep-3x3-jobs2")
# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds;
# setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SOLVE_SHAPES = ((2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (3, 21), (64, 1))
FAMILIES = ("rand", "adv")
TAGS = ("BaseN1", "BaseK2", "BaseN2", "Case1", "Case2", "LemmaClosure", "MatchStitch", "OreRotation")
SHAPE_TAGS = ("Case1", "Case2", "MatchStitch", "LemmaClosure")
FALLBACK = "SearchFallback"


@dataclass(frozen=True)
class Size:
    per_shape: int  # solve-n64 instances per (family, shape)
    sweep: tuple[int, int]
    sweep_total: int  # exact instance count of that sweep
    warm_sweep: tuple[int, int]
    faults: tuple[int, int, int]  # k, n, deletions
    warm_faults: tuple[int, int, int]


FULL = Size(12, (3, 3), 20854, (3, 2), (4, 4, 10), (3, 3, 4))
# selfcheck.py runs every workload and metric at this size in seconds.
TOY = Size(1, (3, 2), 79, (2, 2), (3, 3, 4), (3, 2, 2))

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    out = {}
    for name in (
        "constructive.solve",
        "graphio.parse_graph",
        "graph.from_edge_list",
        "graph.stats",
        "conditions.check_theorem5_sigma",
        "oracle.is_hamiltonian",
    ):
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name in (
        "constructive.stitch_matching",
        "constructive.transversal",
        "graph.remove_edges",
        "oracle.sweep",
        "extremal.faults",
    ):
        out[f"{name}.self_s"] = "s"
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = "s"
    out["constructive.fallbacks"] = "count"
    out["constructive.fallback_ratio"] = "ratio"
    for tag in TAGS:
        out[f"constructive.tag.{tag}"] = "count"
    for name in ("oracle.nodes_expanded", "oracle.dp_calls", "oracle.backtracking_calls"):
        out[name] = "count"
    out["pool.speedup"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    for family in FAMILIES:
        for k, n in SOLVE_SHAPES:
            prefix = f"constructive.{family}.{k}x{n}"
            out[f"{prefix}.fallbacks"] = "count"
            out[f"{prefix}.recursive_solves"] = "count"
            for tag in SHAPE_TAGS:
                out[f"{prefix}.tag.{tag}"] = "count"
    return out


def load_kpham() -> dict[str, object]:
    """Import kpham afresh from ./src; returns module short name -> module."""
    for name in [m for m in sys.modules if m == "kpham" or m.startswith("kpham.")]:
        del sys.modules[name]
    package = importlib.import_module("kpham")
    if Path(package.__file__).resolve().parent != SRC / "kpham":
        raise ImportError(f"kpham imported from {package.__file__}, not {SRC}")
    importlib.import_module("kpham.cli")  # the package does not import it
    return {
        name.split(".")[-1]: module
        for name, module in sys.modules.items()
        if name == "kpham" or name.startswith("kpham.")
    }


# ---------------------------------------------------------------------------
# workloads
#
# Each workload builds its inputs from the seed and warms up in __init__,
# runs one operation per key with op(key), lists the keys of pass p with
# unit(p), and judges one result with check(key, value), which returns
# (operations attempted, operations failed, gate passed).


class SolveN64:
    """Closed loop, one client: each request is `kpham solve -` run
    in-process on one instance's text, stdout captured."""

    jobs = 0

    def __init__(self, kp: dict, seed: int, size: Size):
        self.kp = kp
        rng = random.Random(seed)
        threshold = kp["conditions"].edge_threshold
        self.instances = []  # (family, k, n, graph, text)
        for _ in range(size.per_shape):
            for k, n in SOLVE_SHAPES:
                for family in FAMILIES:
                    if family == "rand":
                        g = kp["extremal"].random_graph_at_edge_count(k, n, threshold(k, n), rng)
                    else:
                        g = adversarial(kp["graph"], k, n, rng)
                    self.instances.append((family, k, n, g, kp["graphio"].write_graph(g)))
        for index in range(len(SOLVE_SHAPES) * len(FAMILIES)):  # warm up
            self.op(index)

    def unit(self, p: int):
        return range(len(self.instances))

    def op(self, index: int) -> tuple[int, str]:
        out = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(self.instances[index][4])
        try:
            with contextlib.redirect_stdout(out):
                rc = self.kp["cli"].run(["solve", "-"])
        finally:
            sys.stdin = stdin
        return rc, out.getvalue()

    def check(self, index: int, value: tuple[int, str]) -> tuple[int, int, bool]:
        """Certify the printed cycle with paths.validate_hamilton_cycle."""
        ok = self._certified(self.instances[index][3], *value)
        return 1, 0 if ok else 1, ok

    def _certified(self, g, rc: int, text: str) -> bool:
        words = text.split("\n", 1)[0].split()
        if rc != 0 or not words or words[0] != "cycle":
            return False
        try:
            self.kp["paths"].validate_hamilton_cycle(g.adj, [int(w) for w in words[1:]])
        except (ValueError, self.kp["errors"].KphamError):
            return False
        return True


def adversarial(graph, k: int, n: int, rng: random.Random):
    """Threshold instance spending the whole deletion budget (k-1)n - 2 on
    edges at 1-3 hub vertices."""
    budget = (k - 1) * n - 2
    hubs = rng.sample(range(k * n), rng.randint(1, 3))
    cuts = sorted(rng.sample(range(1, budget), len(hubs) - 1))
    shares = [b - a for a, b in zip([0, *cuts], [*cuts, budget])]
    dropped: set[tuple[int, int]] = set()
    for hub, share in zip(hubs, shares):
        incident = [(min(hub, w), max(hub, w)) for w in range(k * n) if w // n != hub // n]
        dropped.update(rng.sample([e for e in incident if e not in dropped], share))
    g, removed = graph.remove_edges(graph.new_complete(k, n), sorted(dropped))
    if removed != budget:
        raise AssertionError(f"removed {removed} of {budget} edges")
    return g


class Sweep:
    """Batch calls: each operation is one full enumerate_threshold_sweep
    call, keyed by its jobs; its instances are what ops_per_s counts."""

    def __init__(self, kp: dict, size: Size, jobs: int):
        self.kp, self.size, self.jobs = kp, size, jobs
        kp["oracle"].enumerate_threshold_sweep(*size.warm_sweep, jobs=jobs)
        self.first = None

    def unit(self, p: int):
        return [self.jobs]

    def op(self, jobs: int):
        return self.kp["oracle"].enumerate_threshold_sweep(*self.size.sweep, jobs=jobs)

    def check(self, jobs: int, summary) -> tuple[int, int, bool]:
        """Exact total, no counterexample, and every summary identical to
        the first one, whatever its jobs (the --jobs identity guarantee)."""
        if self.first is None:
            self.first = summary
        ok = (
            summary.total == self.size.sweep_total
            and not summary.counterexamples
            and summary == self.first
        )
        return summary.total, len(summary.counterexamples), ok


class Faults:
    """One trial per call: call j is fault_tolerance_trial(k, n, d,
    trials=1, seed=base + j), so the calls add up to the one series
    fault_tolerance_trial(k, n, d, seed=base) draws."""

    jobs = 0

    def __init__(self, kp: dict, seed: int, size: Size):
        self.kp, self.size = kp, size
        self.base = random.Random(seed).getrandbits(31)
        k, n, d = size.warm_faults
        kp["extremal"].fault_tolerance_trial(k, n, d, trials=1, seed=self.base)

    def unit(self, p: int):
        return [p]

    def op(self, j: int):
        k, n, d = self.size.faults
        return self.kp["extremal"].fault_tolerance_trial(
            k, n, d, trials=1, seed=self.base + j, cross_check=True
        )

    def check(self, j: int, report) -> tuple[int, int, bool]:
        """The trial fails when it is failed or a disagreement."""
        failed = int(report.failed > 0 or report.disagreements > 0)
        return report.trials, failed, report.trials == 1


def make_workload(name: str, kp: dict, seed: int, size: Size):
    if name == "solve-n64":
        return SolveN64(kp, seed, size)
    if name == "faults-4x4":
        return Faults(kp, seed, size)
    return Sweep(kp, size, jobs=2 if name.endswith("jobs2") else 1)


# ---------------------------------------------------------------------------
# measurement


def set_up(name: str, seed: int, size: Size):
    """Set up repeatedly (import, inputs, warm-up); return the modules and
    workload of the last set-up and every set-up time."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        kp = load_kpham()
        workload = make_workload(name, kp, seed, size)
        times.append(time.perf_counter() - start)
    return kp, workload, times


def tally(workload, results) -> tuple[int, int, bool]:
    attempted = failed = 0
    gates_ok = True
    for key, value in results:
        a, f, ok = workload.check(key, value)
        attempted += a
        failed += f
        gates_ok &= ok
    return attempted, failed, gates_ok and failed == 0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, under --jobs, the largest worker's
    peak once per worker (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024


def run_end_to_end(name: str, seed: int, seconds: float, size: Size):
    _, workload, setup_times = set_up(name, seed, size)
    latencies: list[float] = []
    results = []
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        for key in workload.unit(p):
            t0 = time.perf_counter()
            value = workload.op(key)
            latencies.append(time.perf_counter() - t0)
            results.append((key, value))
        p += 1
    wall = time.perf_counter() - start

    attempted, failed, correct = tally(workload, results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / wall,
        "latency_ms_p50": 1000 * percentile(latencies, 50),
        "latency_ms_p90": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(workload.jobs),
    }
    # The --jobs identity gate: jobs=1 must agree. It runs after peak_rss_mb
    # is read, so the serial path's memory does not count against jobs=2.
    if workload.jobs > 1:
        correct &= tally(workload, [(1, workload.op(1))])[2]
    context = {"latency_samples": len(latencies), "wall_s": wall, "setup_samples_s": setup_times}
    return correct, attempted, failed, metrics, END_TO_END, context


def timed_unit(workload, keys, tracer=None):
    values = []
    start = time.perf_counter()
    for request, key in enumerate(keys):
        if tracer is None:
            values.append(workload.op(key))
        else:
            with tracer.op(request):
                values.append(workload.op(key))
    return values, time.perf_counter() - start


def run_traced(name: str, seed: int, size: Size):
    kp, workload, _ = set_up(name, seed, size)
    keys = list(workload.unit(0))
    baseline, base_wall = timed_unit(workload, keys)
    speedup = 0.0
    extra = []
    if isinstance(workload, Sweep):
        # pool.speedup, and the --jobs identity gate: the same sweep,
        # untraced, at the other jobs value.
        other = 3 - workload.jobs
        (summary,), other_wall = timed_unit(workload, [other])
        extra = [(other, summary)]
        walls = {workload.jobs: base_wall, other: other_wall}
        speedup = walls[1] / walls[2]

    TRACE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TRACE_DIR) as spool:
        tracer = spans.Tracer(Path(spool))
        with tracer.installed(kp):
            traced, traced_wall = timed_unit(workload, keys, tracer)
        tracer.merge_spool()
    tracer.write(TRACE_DIR / f"{name}.jsonl")

    attempted, failed, correct = tally(workload, list(zip(keys, traced)))
    correct &= traced == baseline and tally(workload, extra)[2]

    metrics = layer_metrics(tracer.spans, workload)
    metrics["pool.speedup"] = speedup
    metrics["trace.overhead_ratio"] = traced_wall / base_wall
    context = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": base_wall,
        "spans": len(tracer.spans),
        "untraced_names": tracer.missing,
    }
    return correct, attempted, failed, metrics, per_layer_units(), context


def layer_metrics(all_spans: list[list], workload) -> dict[str, float]:
    metrics = dict.fromkeys(per_layer_units(), 0)
    tops = []  # (request, trace) of every solve not nested in another
    solves: dict[int, int] = {}  # request -> solve calls, recursive ones too
    for (name, _parent, request, _start, _end, info), self_s in zip(
        all_spans, spans.self_times(all_spans)
    ):
        for key in (f"{name}.self_s", name.split(".", 1)[0] + ".self_s"):
            if key in metrics:
                metrics[key] += self_s
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] += 1
        if name == "constructive.solve":
            solves[request] = solves.get(request, 0) + 1
            if info[0]:
                tops.append((request, info[1]))
        elif name == "oracle.is_hamiltonian":
            method, nodes = info
            metrics["oracle.nodes_expanded"] += nodes
            if f"oracle.{method}_calls" in metrics:
                metrics[f"oracle.{method}_calls"] += 1

    for request, trace in tops:
        tags = set(trace)
        metrics["constructive.fallbacks"] += FALLBACK in tags
        for tag in TAGS:
            metrics[f"constructive.tag.{tag}"] += tag in tags
        if isinstance(workload, SolveN64):
            family, k, n = workload.instances[request][:3]
            prefix = f"constructive.{family}.{k}x{n}"
            metrics[f"{prefix}.fallbacks"] += FALLBACK in tags
            metrics[f"{prefix}.recursive_solves"] += solves[request] - 1
            for tag in SHAPE_TAGS:
                metrics[f"{prefix}.tag.{tag}"] += tag in tags
    if tops:
        metrics["constructive.fallback_ratio"] = metrics["constructive.fallbacks"] / len(tops)
    return metrics


# ---------------------------------------------------------------------------
# entry point


def load_average() -> float:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return -1.0


def main(argv: list[str] | None = None, size: Size = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": load_average(),
    }
    if not (SRC / "kpham" / "__init__.py").is_file():
        print(f"error: no kpham sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.trace:
        outcome = run_traced(args.workload, args.seed, size)
    else:
        outcome = run_end_to_end(args.workload, args.seed, args.seconds, size)
    correct, attempted, failed, metrics, units, extra = outcome
    context.update(extra)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
