"""Closed-loop benchmark of the pjtdiag command line.

Usage, from the repository root:

    python3 bench/run.py --workload sweep15 --seed 1 --seconds 30 --trace 0

One client calls ``pjtdiag.cli.main(argv)`` in this process and sends the
next command only when the previous one has finished. The commands run on
parameter files generated from ``--seed`` (see workloads.py), in rounds of
four, until ``--seconds`` have passed and the workload's least number of
rounds is done. Every output is then checked against an independent
reference (see oracle.py). The program is imported from ``src/`` next to
this directory, never from an installed copy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones: set-up time, fastest command time and
peak memory; median and p95 command time and throughput go to the summary.
With ``--trace 1`` the same commands run once plain
and once under spans, and the metrics are the per-layer ones of the traced
pass (see tracing.py); the spans are written to ``.bench_out/``. A summary
goes to standard error. The exit status is 2, with no result, when the
benchmark cannot run at all.
"""

import os
import sys

# The measured process runs with one BLAS thread, the steadiest choice for a
# single client on a shared machine, and with glibc's mmap threshold fixed
# at its default of 128 KiB. Left adaptive, the threshold rises as large
# arrays are freed, later ones come from a fragmenting heap, and the peak
# RSS of identical work varied by 5% between processes; fixed, freed arrays
# go back to the system at once and peak RSS follows live memory.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # Both settings are read once at process start, so the script restarts
    # itself in place with them.
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Half of the set-up probes run before the timed phase and half after the
# check, so that their median spans more of the run.
SETUP_PROBES = 6
# The percentile is reported only with at least ten samples beyond it.
TAIL_MIN_COMMANDS = 200

# The command time gated is the fastest of the run. On a shared host the
# same command ran at 15 ms or at 26 ms for stretches of seconds to minutes.
# Over 10 s windows of one long run, the quartiles of the window median lay
# 25% apart and those of the fastest command 5%. Median, p95 and throughput
# go to the summary on standard error.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_min_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def load_cli():
    """Import pjtdiag.cli from ``src/`` of this checkout, refusing any other copy."""
    src = (ROOT / "src").resolve()
    if not (src / "pjtdiag" / "cli.py").is_file():
        raise BenchError(f"no pjtdiag sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pjtdiag.cli

    if src not in Path(pjtdiag.cli.__file__).resolve().parents:
        raise BenchError(f"pjtdiag was imported from {pjtdiag.cli.__file__}, not {src}")
    return pjtdiag.cli


def run_command(cli, argv: list[str]) -> tuple[object, float, str, str]:
    """Run one CLI command; returns (status, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:
        # A crash fails this command; the loop goes on with the next one.
        status = "exception"
        err.write(traceback.format_exc())
    return status, time.perf_counter() - start, out.getvalue(), err.getvalue()


@dataclass
class Phase:
    """Commands of one timed pass, in the order they ran."""

    inputs: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    statuses: list[object] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    wall: float = 0.0


def run_phase(cli, workload, paths, out_dir: Path, first: dict[int, str], *,
              seconds: float, min_rounds: int, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done.

    The first output of each input is written to ``out_dir`` for the
    checker; later outputs of the same input are kept as digests only, so
    that memory does not grow with the number of commands.
    """
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for _ in range(workloads.ROUND):
            count = len(phase.inputs)
            index = count % len(paths)
            if tracer is not None:
                tracer.command = count
            status, elapsed, text, err = run_command(cli, workload.argv(paths[index]))
            digest = hashlib.blake2b(text.encode()).hexdigest()
            if index not in first:
                first[index] = digest
                (out_dir / f"out-{index:05d}.csv").write_text(text, encoding="utf-8")
            phase.inputs.append(index)
            phase.seconds.append(elapsed)
            phase.statuses.append(status)
            phase.digests.append(digest)
            if status != 0:
                phase.errors.append(f"input {index}: exit status {status}: {err.strip()[-400:]}")
        phase.rounds += 1
        if phase.rounds >= min_rounds and time.perf_counter() >= deadline:
            break
    phase.wall = time.perf_counter() - start
    return phase


def make_checker(workload):
    """Function (text, input, oracle) -> problems for this workload's output."""
    kind, options = workload.command[0], dict(zip(workload.command[1::2], workload.command[2::2]))
    if kind == "spectrum":
        cutoff, states = int(options["--cutoff"]), int(options["--states"])
        return lambda text, item, ref: oracle.check_spectrum(
            text, item.params, ref, cutoff, states, item.reference_delta)
    if kind == "converge":
        cutoffs = [int(c) for c in options["--cutoffs"].split(",")]
        states = int(options["--states"])
        return lambda text, item, ref: oracle.check_converge(
            text, item.params, ref, cutoffs, states)
    if kind == "apes":
        xs = np.linspace(float(options["--xmin"]), float(options["--xmax"]),
                         int(options["--points"]))
        return lambda text, item, ref: oracle.check_apes(text, item.params, ref, xs)
    raise BenchError(f"no checker for subcommand {kind!r}")


def check_phases(workload, pool, out_dir: Path, first: dict[int, str],
                 phases: list[Phase]) -> tuple[int, list[str]]:
    """Count failed commands; returns (failed, problem descriptions).

    A command fails on a nonzero exit status, on an output the checker
    rejects, or on an output that differs from the first one of its input.
    """
    check = make_checker(workload)
    ref = oracle.Oracle()
    problems: list[str] = []
    bad_inputs: set[int] = set()
    for index in sorted(first):
        text = (out_dir / f"out-{index:05d}.csv").read_text(encoding="utf-8")
        found = check(text, pool[index], ref)
        if found:
            bad_inputs.add(index)
            problems += [f"input {index} ({pool[index].family}): {p}" for p in found]
    failed = 0
    for phase in phases:
        problems += phase.errors
        for index, status, digest in zip(phase.inputs, phase.statuses, phase.digests):
            if status != 0 or index in bad_inputs or digest != first[index]:
                failed += 1
                if status == 0 and digest != first[index]:
                    problems.append(f"input {index}: output differs from its first run")
    return failed, problems


def setup_samples(workload, params_path: str, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes: import plus warm-up command."""
    argv = workload.argv(params_path, workload.warmup)
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"), *argv]
    samples = []
    for _ in range(count):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or result["exit"] != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(result["setup_s"])
    return samples


def measure(workload, seed: int, seconds: float, trace: bool, *,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    cli = load_cli()
    pool = workloads.generate(workload, seed)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        paths = workloads.write_pool(pool, work / "params")
        out_dir = work / "out"
        out_dir.mkdir()
        probes = 0 if trace else probes
        samples = setup_samples(workload, paths[0], probes // 2)
        status, _, _, err = run_command(cli, workload.argv(paths[0], workload.warmup))
        if status != 0:
            raise BenchError(f"warm-up command failed with status {status}: {err.strip()[-400:]}")

        first: dict[int, str] = {}
        if trace:
            plain = run_phase(cli, workload, paths, out_dir, first,
                              seconds=seconds / 2, min_rounds=1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(cli, workload, paths, out_dir, first,
                                   seconds=0.0, min_rounds=plain.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [run_phase(cli, workload, paths, out_dir, first,
                                seconds=seconds, min_rounds=workload.min_rounds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        check_start = time.perf_counter()
        failed, problems = check_phases(workload, pool, out_dir, first, phases)
        check_s = time.perf_counter() - check_start
        samples += setup_samples(workload, paths[0], probes - probes // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(len(phase.inputs) for phase in phases)
    timed = phases[-1]
    commands = len(timed.inputs)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "commands": commands,
        "rounds": timed.rounds,
        "distinct_inputs": len(first),
        "failed_frac": failed / attempted,
        "check_s": round(check_s, 3),
    }
    if trace:
        overhead = (sum(traced.seconds) - sum(plain.seconds)) / commands
        values = tracer.metrics(commands, overhead)
        units = tracing.metric_units()
        summary["missing_wrapped_names"] = tracer.missing
        spans_path = ROOT / ".bench_out" / f"spans-{workload.name}.json"
        tracer.write(spans_path)
        summary["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(samples),
            "op_min_ms": min(timed.seconds) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        summary["setup_samples_s"] = [round(s, 4) for s in samples]
        summary["ops_per_s"] = commands / timed.wall
        summary["op_p50_ms"] = statistics.median(timed.seconds) * 1e3
        if commands >= TAIL_MIN_COMMANDS:
            summary["op_p95_ms"] = statistics.quantiles(timed.seconds, n=20)[-1] * 1e3
    print(json.dumps(summary), file=sys.stderr)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if trace and tracer.missing:
        print(f"not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
