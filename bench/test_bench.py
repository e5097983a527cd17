"""Tests of the benchmark itself: python3 -m pytest bench"""

import dataclasses
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CLI = run.load_cli()

# Each workload at a tiny size: one round of four commands and one set-up
# probe. The ladder stays below the dense/iterative crossover to keep the
# test short.
TINY = {
    "sweep15": dataclasses.replace(workloads.WORKLOADS["sweep15"], pool_size=8),
    "ladder": dataclasses.replace(
        workloads.WORKLOADS["ladder"],
        command=("converge", "--cutoffs", "5,10", "--states", "8"),
        pool_size=8,
        min_rounds=1,
    ),
    "apes": dataclasses.replace(workloads.WORKLOADS["apes"], pool_size=8),
}


def test_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"ladder"}


def test_inputs_depend_only_on_seed():
    spec = workloads.WORKLOADS["sweep15"]
    pool = workloads.generate(spec, 7)
    assert pool == workloads.generate(spec, 7)
    assert pool != workloads.generate(spec, 8)
    assert [item.reference_delta for item in pool[:4]] == [6.7, 7.6, 9.3, 10.8]
    assert all(item.reference_delta is None for item in pool[4:])
    for item in pool[4:]:
        base = workloads.PRESETS[item.family][0]
        assert all(abs(v / b - 1.0) <= spec.spread for v, b in zip(item.params, base))


@pytest.mark.parametrize("seed", [1, 2])
def test_draws_keep_the_level_pattern(seed):
    """Across the draw ranges the oracle sees a nondegenerate ground level
    with a doublet above it, and R raises no truncation warning."""
    from pjtdiag.analysis import TruncationWarning, spectrum_report
    from pjtdiag.paramfile import parse_params

    ref = oracle.Oracle()
    pool = workloads.generate(workloads.WORKLOADS["sweep15"], seed)[:120]
    for item in pool:
        levels = ref.levels(item.params, 15, 3)
        assert levels[1] - levels[0] > oracle.GROUND_GAP_MEV
        assert levels[2] - levels[1] < oracle.TOL_MEV
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for item in pool[:24]:
            spectrum_report(parse_params(item.text()), 15)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name, trace):
    result = run.measure(TINY[name], seed=3, seconds=0, trace=trace, probes=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (8 if trace else 4)
    units = tracing.metric_units() if trace else run.END_TO_END_UNITS
    assert result["metrics"].keys() == units.keys()
    for metric, unit in units.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif name == "apes":
        assert values["solver.solve.calls"] == 0
        assert values["hamiltonian.classical_apes.calls"] == 401
    else:
        assert values["cli.main.calls"] == 1
        assert values["solver.solve.calls"] == (2 if name == "ladder" else 1)
        assert values["trace.missing"] == 0
        assert values["solver.solve.max_residual_mev"] < 1e-8


def _perturb(text, row, column, shift):
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and line[0] in "-0123456789"]
    cells = lines[data[row]].split(",")
    cells[column] = f"{float(cells[column]) + shift:.6f}"
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _spectrum_wrong_delta(text):
    head, _, value = text.rstrip("\n").rpartition("delta_mev=")
    return f"{head}delta_mev={float(value) + 0.01:.6f}\n"


# (workload, perturbation) pairs: one energy moved by 1e-5 meV, and a wrong
# delta in each table that prints one.
PERTURBATIONS = {
    "spectrum energy": ("sweep15", lambda t: _perturb(t, 3, 1, 1e-5)),
    "spectrum delta": ("sweep15", _spectrum_wrong_delta),
    "converge energy": ("ladder", lambda t: _perturb(t, 1, 2, 1e-5)),
    "converge delta": ("ladder", lambda t: _perturb(t, 0, 9, 0.01)),
    "apes energy": ("apes", lambda t: _perturb(t, 200, 3, 1e-5)),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_checker_counts_perturbed_outputs_as_failures(case, tmp_path):
    name, perturb = PERTURBATIONS[case]
    spec = TINY[name]
    pool = workloads.generate(spec, 5)[:2]
    paths = workloads.write_pool(pool, tmp_path / "params")
    good = run.run_command(CLI, spec.argv(paths[0]))[2]
    other = run.run_command(CLI, spec.argv(paths[1]))[2]
    bad = perturb(other)
    assert bad != other
    (tmp_path / "out-00000.csv").write_text(good)
    (tmp_path / "out-00001.csv").write_text(bad)
    first = {0: "a", 1: "b"}
    phase = run.Phase(inputs=[0, 1, 0, 1], statuses=[0] * 4, digests=["a", "b", "a", "c"])
    failed, problems = run.check_phases(spec, pool, tmp_path, first, [phase])
    # Both runs of the perturbed input fail; the last also differs from its first run.
    assert failed == 2
    assert problems and all("input 1" in p for p in problems)


def test_nonzero_exit_status_is_a_failure(tmp_path):
    spec = TINY["sweep15"]
    pool = workloads.generate(spec, 5)[:1]
    paths = workloads.write_pool(pool, tmp_path / "params")
    (tmp_path / "out-00000.csv").write_text(run.run_command(CLI, spec.argv(paths[0]))[2])
    phase = run.Phase(inputs=[0, 0], statuses=[0, 1], digests=["a", "a"])
    assert run.check_phases(spec, pool, tmp_path, {0: "a"}, [phase])[0] == 1


def test_tracer_wraps_every_binding_and_lists_missing_names():
    import pjtdiag.analysis
    import pjtdiag.cli
    import pjtdiag.hamiltonian

    original = pjtdiag.hamiltonian.classical_apes
    tracer = tracing.Tracer(targets=("hamiltonian.classical_apes", "cli.no_such_function",
                                     "no_such_module.main"))
    assert tracer.install() == ["cli.no_such_function", "no_such_module.main"]
    try:
        assert pjtdiag.hamiltonian.classical_apes is not original
        assert pjtdiag.analysis.classical_apes is pjtdiag.hamiltonian.classical_apes
        pjtdiag.analysis.apes_scan(_siv(), [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert pjtdiag.hamiltonian.classical_apes is original
    assert pjtdiag.analysis.classical_apes is original
    assert tracer.layer_totals()["hamiltonian.classical_apes"][0] == 2
    assert tracer.metrics(1, 0.0)["trace.missing"] == 2


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(targets=("a.outer", "a.inner"))
    tracer.spans[:] = [
        ["a.outer", 0.0, 10.0, -1, 0],
        ["a.inner", 1.0, 4.0, 0, 0],
        ["a.inner", 5.0, 7.0, 0, 0],
    ]
    totals = tracer.layer_totals()
    assert totals["a.outer"] == (1, 10.0, 5.0)
    assert totals["a.inner"] == (2, 5.0, 5.0)


def _siv():
    from pjtdiag.hamiltonian import PjtParams

    return PjtParams(*workloads.PRESETS["SiV"][0])


def test_cli_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apes", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep15", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
