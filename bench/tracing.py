"""Spans around the public functions of each pjtdiag layer.

``Tracer.install`` replaces every binding of each function in ``TARGETS``
in the loaded pjtdiag modules, including the names that ``from .x import y``
binds in other modules, with a wrapper that records a span: name, start,
end, parent span and command id. Spans stay in memory until ``write``.
Names that no longer exist are returned by ``install`` and reported, never
skipped silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

PACKAGE = "pjtdiag"

TARGETS = (
    "cli.main",
    "paramfile.parse_params",
    "fock.build_basis",
    "fock.position_operator",
    "hamiltonian.assemble",
    "hamiltonian.classical_apes",
    "solver.solve",
    "solver.converge_cutoff",
    "analysis.spectrum_report",
    "analysis.classify_levels",
    "analysis.distortion_expectation",
    "analysis.electronic_character",
    "analysis.apes_scan",
)

# Per-layer metrics beyond calls, busy and self time, with their units.
# Values ending in "/op" are totals divided by the traced commands.
EXTRA_UNITS = {
    "solver.solve.iterations": "count/op",
    "solver.solve.iterative_calls": "count/op",
    "solver.solve.max_dim": "count",
    "solver.solve.max_residual_mev": "meV",
    "solver.solve.peak_mb": "MB",
    "hamiltonian.assemble.nnz": "count/op",
    "hamiltonian.assemble.bytes_computed": "B/op",
    "trace.overhead_s": "s/op",
    "trace.missing": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.busy_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Collects spans and layer counters for one traced phase."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.command = -1
        # Each span is [name, start, end, parent index, command id].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.solve_iterations = 0
        self.solve_iterative = 0
        self.solve_max_dim = 0
        self.solve_max_residual = 0.0
        self.solve_peak_bytes = 0
        self.assemble_nnz = 0
        self.assemble_bytes = 0

    def install(self) -> list[str]:
        """Wrap every target; returns the names that could not be found."""
        for name in self.targets:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for loaded in self._package_modules():
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._patched.append((loaded, key, original))
        return self.missing

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @staticmethod
    def _package_modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        after = {
            "solver.solve": self._after_solve,
            "hamiltonian.assemble": self._after_assemble,
        }.get(name)
        traces_memory = name == "solver.solve"
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(index)
            if traces_memory:
                tracemalloc.start()
            try:
                result = function(*args, **kwargs)
            finally:
                if traces_memory:
                    self.solve_peak_bytes = max(
                        self.solve_peak_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_solve(self, args, result) -> None:
        self.solve_iterations += int(getattr(result, "iterations_used", 0))
        self.solve_iterative += getattr(result, "method", "") == "iterative"
        matrix = getattr(args[0], "matrix", None) if args else None
        if matrix is not None:
            self.solve_max_dim = max(self.solve_max_dim, int(matrix.shape[0]))
        residuals = getattr(result, "residuals", None)
        if residuals is not None and len(residuals):
            self.solve_max_residual = max(self.solve_max_residual, float(max(residuals)))

    def _after_assemble(self, args, result) -> None:
        matrix = getattr(result, "matrix", None)
        if matrix is None:
            return
        # CSR storage computed from nnz and dimension, not measured.
        self.assemble_nnz += int(matrix.nnz)
        self.assemble_bytes += int(
            matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
            + (matrix.shape[0] + 1) * matrix.indptr.itemsize
        )

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Calls, busy time and self time per target name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0.0] for name in self.targets}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {name: tuple(v) for name, v in totals.items()}

    def metrics(self, commands: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metric values; see ``metric_units`` for the units."""
        values: dict[str, float] = {}
        for name, (calls, busy, own) in self.layer_totals().items():
            values[f"{name}.calls"] = calls / commands
            values[f"{name}.busy_s"] = busy / commands
            values[f"{name}.self_s"] = own / commands
        values.update({
            "solver.solve.iterations": self.solve_iterations / commands,
            "solver.solve.iterative_calls": self.solve_iterative / commands,
            "solver.solve.max_dim": self.solve_max_dim,
            "solver.solve.max_residual_mev": self.solve_max_residual,
            "solver.solve.peak_mb": self.solve_peak_bytes / 2**20,
            "hamiltonian.assemble.nnz": self.assemble_nnz / commands,
            "hamiltonian.assemble.bytes_computed": self.assemble_bytes / commands,
            "trace.overhead_s": overhead_s,
            "trace.missing": len(self.missing),
        })
        return values

    def write(self, path: Path) -> None:
        """Write the spans and the missing names as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "command"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "missing": self.missing, "spans": self.spans}, handle)
