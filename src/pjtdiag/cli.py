"""Command-line front end: spectrum, apes, and converge subcommands.

All commands emit deterministic CSV (period decimal separator, fixed column
order, '#' provenance comments, no timestamps) to standard output or to
--output. Exit status 0 means every requested computation met its tolerance.
Each command takes the parsed arguments with the resolved parameters; the
library refuses invalid levels, tolerances, cutoffs and sheet ranges before
anything is written, so the CLI checks only what it must refuse earlier.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .analysis import (
    StateOrderingError,
    apes_scan,
    delta_from_groups,
    level_groups,
    spectrum_report,
)
from .hamiltonian import PjtParams
from .paramfile import parse_params
from .presets import get_preset
from .sectors import check_cutoff
from .solver import ConvergenceError

__all__ = ["build_parser", "cmd_apes", "cmd_converge", "cmd_spectrum", "main"]


def build_parser() -> argparse.ArgumentParser:
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
        cutoffs = tuple(int(part) for part in text.split(",") if part.strip())
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
        # np.linspace warns on ends or a width beyond the float range before
        # the library sees the coordinates.
        if not math.isfinite(args.xmax - args.xmin):
            raise ValueError("scan range must be finite")
        if not args.xmax > args.xmin:
            raise ValueError(
                f"--xmax must be greater than --xmin, got [{args.xmin}, {args.xmax}]"
            )
    else:
        # converge writes its header before it solves the first cutoff.
        if args.states < 3:
            raise ValueError(f"--states must be >= 3, got {args.states}")
        if not args.tolerance > 0:
            raise ValueError(f"--tolerance must be > 0, got {args.tolerance}")
        args.cutoffs = _parse_cutoff_list(args.cutoffs)
        check_cutoff(args.cutoffs[-1])


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
    """Levels, characters, R, and the delta footer as CSV. Returns exit status."""
    report = spectrum_report(
        params, args.cutoff, num_states=args.states, tolerance=args.tolerance
    )
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
    points = apes_scan(params, xs, y=0.0)
    with _open_output(args.output) as out:
        _write_provenance(
            out,
            args,
            source,
            f"xmin={args.xmin:g} xmax={args.xmax:g} points={args.points} y=0",
        )
        out.write("x,e0_mev,e1_mev,e2_mev,e3_mev,w0_a2u,w0_a1u,w0_eu\n")
        for point in points:
            e = point.energies
            w0 = point.characters[0]
            out.write(
                f"{point.x:.6f},{e[0]:.6f},{e[1]:.6f},{e[2]:.6f},{e[3]:.6f},"
                f"{w0[0]:.6f},{w0[1]:.6f},{w0[2]:.6f}\n"
            )
    return 0


def cmd_converge(args: argparse.Namespace, params: PjtParams, source: str) -> int:
    """Per-cutoff energies and delta as CSV; continues past failed cutoffs.

    args.cutoffs is the ladder as parsed by the checks in main. Failed
    cutoffs produce a diagnostic on standard error and no CSV row; a cutoff
    whose level pattern leaves delta undefined gets delta_mev=nan. Either
    condition makes the exit status nonzero.
    """
    failures = 0
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
        for cutoff in args.cutoffs:
            try:
                energies, groups = level_groups(
                    params,
                    cutoff,
                    args.states,
                    tolerance=args.tolerance,
                    compute_r=False,
                )
            except (ValueError, ConvergenceError) as exc:
                print(f"cutoff {cutoff}: {exc}", file=sys.stderr)
                failures += 1
                continue
            try:
                delta = delta_from_groups(groups)
            except StateOrderingError as exc:
                print(f"cutoff {cutoff}: {exc}", file=sys.stderr)
                failures += 1
                delta = math.nan
            energy_text = ",".join(f"{e:.6f}" for e in energies)
            out.write(f"{cutoff},{energy_text},{delta:.6f}\n")
    return 0 if failures == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Returns the process exit status."""
    args = build_parser().parse_args(argv)
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
