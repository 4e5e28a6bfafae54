"""In-memory span recorder for the benchmark's traced run.

Tracer.install() rebinds, in every kpham module, each name bound to one of
the functions in TRACED to a wrapper that records a span per call; restore()
puts the originals back. Nothing under src/ is edited: the wrappers replace
module attributes, which is where cross-module calls (and the solver's
recursive solve() calls) look their callee up.

A span is [name, parent, request, start, end, info]. parent is the index of
the enclosing span (-1 at the top), request the benchmark operation it
belongs to, and info what the call returned that the metrics need: the
trace tuple of a solve, or (method, nodes) of an oracle decision.

Worker processes forked by a sweep pool inherit the wrappers. Each traced
chunk call in a worker writes its spans to the spool directory when it
returns, and merge_spool() folds them into the parent's list, so the split
also covers `--jobs 2`. Timestamps come from time.perf_counter(), which is
CLOCK_MONOTONIC on Linux and so comparable across processes.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (defining module, function, span name). Several functions may share a
# span name; the layer is the part of the name before the first dot.
TRACED = (
    ("cli", "run", "cli.run"),
    ("graphio", "parse_graph", "graphio.parse_graph"),
    ("graph", "from_edge_list", "graph.from_edge_list"),
    ("graph", "new_complete", "graph.new_complete"),
    ("graph", "remove_edges", "graph.remove_edges"),
    ("graph", "stats", "graph.stats"),
    ("conditions", "check_ore", "conditions.check_ore"),
    ("conditions", "check_theorem2_edges", "conditions.check_theorem2_edges"),
    ("conditions", "check_theorem5_sigma", "conditions.check_theorem5_sigma"),
    ("constructive", "solve", "constructive.solve"),
    ("constructive", "build_transversal_path", "constructive.transversal"),
    ("constructive", "build_two_disjoint_transversal_paths", "constructive.transversal"),
    ("constructive", "stitch_matching", "constructive.stitch_matching"),
    ("oracle", "is_hamiltonian", "oracle.is_hamiltonian"),
    ("oracle", "enumerate_threshold_sweep", "oracle.sweep"),
    ("oracle", "_sweep_chunk", "oracle.sweep"),
    ("extremal", "fault_tolerance_trial", "extremal.faults"),
    ("extremal", "_fault_chunk", "extremal.faults"),
    ("paths", "canonical_cycle", "paths.canonical_cycle"),
    ("paths", "is_hamilton_cycle", "paths.is_hamilton_cycle"),
    ("paths", "validate_hamilton_cycle", "paths.validate_hamilton_cycle"),
    ("paths", "validate_hamilton_path", "paths.validate_hamilton_path"),
    ("paths", "validate_path", "paths.validate_path"),
)

LAYERS = ("cli", "graphio", "graph", "conditions", "constructive", "oracle", "extremal", "paths")

# Chunk runners execute in pool workers under --jobs N.
_CHUNKS = frozenset({"_sweep_chunk", "_fault_chunk"})


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._solve_depth = 0
        self._pid = os.getpid()
        self._spool_dir = spool_dir
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # TRACED names this kpham lacks

    # ---- wrappers -------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every binding of a TRACED function in the given modules
        (module short name -> module, including the package itself). A
        TRACED function this version of kpham lacks is listed in missing."""
        for home, attr, name in TRACED:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, key, value = self._patched.pop()
            setattr(module, key, value)

    @contextmanager
    def installed(self, modules: dict[str, object]):
        self.install(modules)
        try:
            yield
        finally:
            self.restore()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_solve = name == "constructive.solve"
        is_oracle = name == "oracle.is_hamiltonian"
        is_chunk = fn.__name__ in _CHUNKS

        # functools.wraps keeps __module__ and __qualname__, so a wrapped
        # chunk runner still pickles by reference into pool workers.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            top_solve = is_solve and self._solve_depth == 0
            self._solve_depth += is_solve
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
                self._solve_depth -= is_solve
            if is_solve:
                span[5] = (top_solve, result.trace)
            elif is_oracle:
                span[5] = (result.method, result.nodes_expanded)
            elif is_chunk and os.getpid() != self._pid:
                self._spool(index)
            return result

        return wrapper

    @contextmanager
    def op(self, request: int):
        """Root span of one benchmark operation."""
        self.request = request
        index = len(self.spans)
        span = ["bench.op", -1, request, perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    # ---- worker spans ---------------------------------------------------

    def _spool(self, base: int) -> None:
        path = self._spool_dir / f"{os.getpid()}-{base}.json"
        path.write_text(json.dumps({"base": base, "spans": self.spans[base:]}))

    def merge_spool(self) -> None:
        """Fold worker spans into this tracer, renumbering their indices."""
        for path in sorted(self._spool_dir.glob("*.json")):
            chunk = json.loads(path.read_text())
            base, offset = chunk["base"], len(self.spans)
            for name, parent, request, start, end, info in chunk["spans"]:
                if parent >= base:
                    parent += offset - base
                self.spans.append([name, parent, request, start, end, info])
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: [id, name, parent, request,
        start, end, info]."""
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children run in sequence within one process; those from pool workers
    overlap, so the covered part is the union of the child intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, parent, _req, start, end, _info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, _parent, _req, start, end, _info) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
