"""Command-line front end: spectrum, apes, and converge subcommands.

All commands emit deterministic CSV (period decimal separator, fixed column
order, '#' provenance comments, no timestamps) to standard output or to
--output. Exit status 0 means every requested computation met its tolerance.
Each command takes the parsed arguments with the resolved parameters; the
library refuses invalid levels, tolerances, cutoffs and sheet ranges before
anything is written, so the CLI checks only what it must refuse earlier.
Levels with much weight in the top Fock shells are reported as 'warning:'
lines on standard error; the CSV is the same with or without them.

main may be called repeatedly in one process, each call behaving like a
fresh run; it builds its argument parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from contextlib import contextmanager
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .analysis import StateOrderingError, TruncationWarning, apes_scan, spectrum_report
from .hamiltonian import PjtParams
from .paramfile import parse_params
from .presets import get_preset
from .sectors import MAX_DENSE_BYTES, ConvergenceError, check_cutoff
from .solver import converge_cutoff

__all__ = ["cmd_apes", "cmd_converge", "cmd_spectrum", "main"]

# Memory an apes scan holds per point before its first row is written: the
# coordinate, the stacked ApesPoint, the row table and its Python floats,
# from the tracemalloc peak of cmd_apes at 20000 to 80000 points (Python
# 3.11, numpy 2.4).
APES_BYTES_PER_POINT = 552


# parse_args leaves the parser unchanged, so one parser serves every call of
# main in a process. Building it takes about 13 times as long as one parse
# (0.63 ms against 0.05 ms on a 2-core Xeon VM), most of the CLI's own time
# in a cutoff-15 spectrum command.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pjtdiag",
        description=(
            "Vibronic spectra of two degenerate orbitals coupled to one "
            "doubly degenerate vibration, by exact diagonalization"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--preset", help="built-in defect preset (SiV, GeV, SnV, PbV)"
        )
        group.add_argument("--params", help="path to a key=value parameter file")

    spectrum = sub.add_parser(
        "spectrum",
        help="vibronic levels with characters, distortion R, and the delta gap",
    )
    add_source(spectrum)
    spectrum.add_argument("--cutoff", type=int, default=15, help="Fock cutoff (default 15)")
    spectrum.add_argument("--states", type=int, default=8, help="levels to report (default 8)")
    spectrum.add_argument("--tolerance", type=float, default=1e-8, help="residual bound in meV")
    spectrum.add_argument("--output", default=None, help="write CSV here instead of stdout")

    apes = sub.add_parser(
        "apes", help="classical adiabatic sheets along X at Y = 0"
    )
    add_source(apes)
    apes.add_argument("--xmin", type=float, default=-4.0, help="scan start (default -4)")
    apes.add_argument("--xmax", type=float, default=4.0, help="scan end (default 4)")
    apes.add_argument("--points", type=int, default=81, help="scan points (default 81)")
    apes.add_argument("--output", default=None, help="write CSV here instead of stdout")

    converge = sub.add_parser(
        "converge", help="level energies and delta over a ladder of Fock cutoffs"
    )
    add_source(converge)
    converge.add_argument(
        "--cutoffs",
        default="5,10,15,20",
        help="comma-separated ascending cutoffs (default 5,10,15,20)",
    )
    converge.add_argument("--states", type=int, default=8, help="levels per cutoff (default 8)")
    converge.add_argument("--tolerance", type=float, default=1e-8, help="residual bound in meV")
    converge.add_argument("--output", default=None, help="write CSV here instead of stdout")
    return parser


def _resolve_params(args: argparse.Namespace) -> tuple[PjtParams, str]:
    if args.preset is not None:
        preset = get_preset(args.preset)
        return preset.params, f"preset:{preset.name}"
    with open(args.params, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_params(text), f"file:{args.params}"


def _parse_cutoff_list(text: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--cutoffs must be comma-separated integers, got {text!r}") from None
    if len(cutoffs) < 2:
        raise ValueError(f"--cutoffs needs at least two values, got {text!r}")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"--cutoffs must be strictly ascending, got {text!r}")
    if cutoffs[0] < 1:
        raise ValueError(f"--cutoffs values must be >= 1, got {text!r}")
    return cutoffs


def _check_args(args: argparse.Namespace) -> None:
    """Refuse the options the library cannot refuse before output starts.

    Replaces the --cutoffs text of converge with the parsed ladder.
    """
    if args.command == "spectrum":
        if args.cutoff < 1:
            raise ValueError(f"--cutoff must be >= 1, got {args.cutoff}")
    elif args.command == "apes":
        if args.points < 2:
            raise ValueError(f"--points must be >= 2, got {args.points}")
        needed = args.points * APES_BYTES_PER_POINT
        if needed > MAX_DENSE_BYTES:
            raise ValueError(
                f"--points {args.points} needs {needed / 2**20:.0f} MiB of scan "
                f"points, beyond the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
            )
        # np.linspace warns on ends or a width beyond the float range before
        # the library sees the coordinates.
        if not math.isfinite(args.xmax - args.xmin):
            raise ValueError("scan range must be finite")
        if not args.xmax > args.xmin:
            raise ValueError(
                f"--xmax must be greater than --xmin, got [{args.xmin}, {args.xmax}]"
            )
    else:
        # converge_cutoff would report a level count or cutoff that does not
        # fit as one failed row per cutoff, under a header with one column
        # per state; refuse such a ladder here once instead.
        if args.states < 3:
            raise ValueError(f"--states must be >= 3, got {args.states}")
        if not args.tolerance > 0:
            raise ValueError(f"--tolerance must be > 0, got {args.tolerance}")
        args.cutoffs = _parse_cutoff_list(args.cutoffs)
        check_cutoff(args.cutoffs[-1], args.states)


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        handle = open(path, "w", encoding="utf-8", newline="\n")
        try:
            yield handle
        finally:
            handle.close()


def _write_provenance(out: TextIO, args: argparse.Namespace, source: str, extra: str) -> None:
    out.write(f"# pjtdiag {__version__} {args.command}\n")
    out.write(f"# source={source}\n")
    out.write(f"# {extra}\n")


def cmd_spectrum(args: argparse.Namespace, params: PjtParams, source: str) -> int:
    """Levels, characters, R, and the delta footer as CSV. Returns exit status.

    Each distinct TruncationWarning of the report goes to standard error as
    one 'warning:' line, on every call; other warnings are shown as usual.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            report = spectrum_report(
                params, args.cutoff, num_states=args.states, tolerance=args.tolerance
            )
    finally:
        # A degenerate multiplet repeats one message; print it once, as the
        # default warning filter did.
        printed = set()
        for w in caught:
            if not issubclass(w.category, TruncationWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
            elif str(w.message) not in printed:
                printed.add(str(w.message))
                print(f"warning: {w.message}", file=sys.stderr)
    with _open_output(args.output) as out:
        _write_provenance(
            out,
            args,
            source,
            f"cutoff={args.cutoff} states={args.states} tolerance={args.tolerance:g}",
        )
        out.write("index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n")
        for i, state in enumerate(report.states):
            w = state.character
            out.write(
                f"{i},{state.energy:.6f},{state.dominant_label},"
                f"{w[0]:.6f},{w[1]:.6f},{w[2] + w[3]:.6f},{state.distortion_r:.6f}\n"
            )
        out.write(f"delta_mev={report.delta:.6f}\n")
    return 0


def cmd_apes(args: argparse.Namespace, params: PjtParams, source: str) -> int:
    """Classical sheet scan along X at Y = 0 as CSV. Returns exit status."""
    xs = np.linspace(args.xmin, args.xmax, args.points)
    sheets = apes_scan(params, xs, y=0.0)
    table = np.column_stack([sheets.x, sheets.energies, sheets.characters[:, 0]])
    row = ",".join(["%.6f"] * table.shape[1]) + "\n"
    with _open_output(args.output) as out:
        _write_provenance(
            out,
            args,
            source,
            f"xmin={args.xmin:g} xmax={args.xmax:g} points={args.points} y=0",
        )
        out.write("x,e0_mev,e1_mev,e2_mev,e3_mev,w0_a2u,w0_a1u,w0_eu\n")
        for values in table.tolist():
            out.write(row % tuple(values))
    return 0


def cmd_converge(args: argparse.Namespace, params: PjtParams, source: str) -> int:
    """Per-cutoff energies and delta as CSV; continues past failed cutoffs.

    args.cutoffs is the ladder as parsed by the checks in main. Failed
    cutoffs produce a diagnostic on standard error and no CSV row; a cutoff
    whose level pattern leaves delta undefined gets delta_mev=nan. Either
    condition makes the exit status nonzero.
    """
    study = converge_cutoff(params, args.cutoffs, args.states, tolerance=args.tolerance)
    with _open_output(args.output) as out:
        _write_provenance(
            out,
            args,
            source,
            f"cutoffs={','.join(str(c) for c in args.cutoffs)} "
            f"states={args.states} tolerance={args.tolerance:g}",
        )
        energy_columns = ",".join(f"e{i}_mev" for i in range(args.states))
        out.write(f"cutoff,{energy_columns},delta_mev\n")
        for row in study.rows:
            if row.error is not None:
                print(f"cutoff {row.cutoff}: {row.error}", file=sys.stderr)
            if row.energies is not None:
                energy_text = ",".join(f"{e:.6f}" for e in row.energies)
                out.write(f"{row.cutoff},{energy_text},{row.delta:.6f}\n")
    return 0 if all(row.error is None for row in study.rows) else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Returns the process exit status."""
    args = _parser().parse_args(argv)
    commands = {"spectrum": cmd_spectrum, "apes": cmd_apes, "converge": cmd_converge}
    try:
        params, source = _resolve_params(args)
        _check_args(args)
        return commands[args.command](args, params, source)
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1
    except StateOrderingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ParamFileError is a ValueError; covers preset lookup, file access,
        # an unwritable --output, schema violations, and option validation.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
