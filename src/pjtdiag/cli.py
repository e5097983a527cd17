"""Command-line front end: spectrum, apes, and converge subcommands.

All commands emit deterministic CSV (period decimal separator, fixed column
order, '#' provenance comments, no timestamps) to standard output or to
--output. Exit status 0 means every requested computation succeeded, each
level with a residual within the resolution of its sector matrices. Each
command takes the parsed arguments with the resolved parameters, refuses
its own bad options, and returns its settings, its CSV lines and its
diagnostics; it writes nothing. The library refuses invalid levels,
cutoffs, ladders, sheet ranges and overflowing matrices, so a command
checks only what the library accepts or would refuse later. main alone
writes: the diagnostics on standard error, then the '#' lines and the CSV.
spectrum, not converge, reports levels with much weight in the top Fock
shells as 'warning:' lines on standard error; its CSV is the same either way.

main may be called repeatedly in one process, each call behaving like a
fresh run; it builds its argument parsers once per process, and parses a
well-formed command with its subcommand's parser alone.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import warnings
from contextlib import nullcontext
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import StateOrderingError, TruncationWarning, converge_cutoff, spectrum_report
from .hamiltonian import PRESETS, PjtParams, classical_apes
from .paramfile import parse_params
from .sectors import MAX_DENSE_BYTES, ConvergenceError, check_cutoff

__all__ = ["cmd_apes", "cmd_converge", "cmd_spectrum", "main"]

# Memory an apes scan holds per point before its first row is written, from
# the tracemalloc peak of cmd_apes at 20000 to 80000 points (Python 3.11,
# numpy 2.4). The peak lies in classical_apes, while it sorts the sheets'
# energies and characters; the table comes after it, and the floats of one
# block of rows are a fixed amount on top.
APES_BYTES_PER_POINT = 296

# apes writes its rows in blocks of this many. One % over the row template
# repeated for every row of a block formats the whole block, which costs far
# less than one % per row, and every value still goes through CPython's own
# %.6f, so the text is exactly that of a per-row format. Blocks rather than
# the whole table keep at most one block of Python floats alive at a time.
_APES_BLOCK_ROWS = 1024

# A command's settings for the third '#' line, CSV lines and diagnostics.
_Result = tuple[str, Iterable[str], list[str]]


class _FloatToken:
    """Stands in for argparse's pattern of negative numbers: a token that
    float() accepts, such as -1e-3, -1E+2, -.5 or -inf, is an option value,
    not an unknown option. The pattern argparse itself uses misses -inf in
    every version, and -1e-3 in Python 3.10 and 3.11; argparse has no public
    hook for it, and its parsers read the pattern from the
    _negative_number_matcher attribute in Python 3.10 to 3.13."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


# Parsing leaves the parsers unchanged, so one set serves every call of main
# in a process. Building them takes about 25 times as long as one parse by
# the spectrum parser alone (0.42 ms against 0.017 ms on a 2-core Xeon VM,
# Python 3.11), more than the CLI's own time in a cutoff-15 spectrum command.
@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand, by name."""
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
        group.add_argument("--preset", help=f"built-in defect preset ({', '.join(PRESETS)})")
        group.add_argument("--params", help="path to a key=value parameter file")

    spectrum = sub.add_parser(
        "spectrum",
        help="vibronic levels with characters, distortion R, and the delta gap",
    )
    add_source(spectrum)
    spectrum.add_argument("--cutoff", type=int, default=15, help="Fock cutoff (default 15)")
    spectrum.add_argument("--states", type=int, default=8, help="levels to report (default 8)")
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
    converge.add_argument("--output", default=None, help="write CSV here instead of stdout")
    apes._negative_number_matcher = _FloatToken
    return parser, {"spectrum": spectrum, "apes": apes, "converge": converge}


def _resolve_params(args: argparse.Namespace) -> tuple[PjtParams, str]:
    if args.preset is not None:
        key = args.preset.strip().lower()
        for name, params in PRESETS.items():
            if name.lower() == key:
                return params, f"preset:{name}"
        raise ValueError(
            f"unknown preset {args.preset!r}; available presets: {', '.join(PRESETS)}"
        )
    # utf-8-sig drops the byte-order mark some editors write before the first key.
    with open(args.params, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    # A line break in the path would end the '# source=' line early.
    path = args.params.replace("\n", "\\n").replace("\r", "\\r")
    return parse_params(text), f"file:{path}"


def _open_output(path: str | None):
    # sys.stdout is read at call time, where a caller may have redirected it.
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def cmd_spectrum(args: argparse.Namespace, params: PjtParams) -> _Result:
    """Levels, characters, R, and the delta footer as CSV; no diagnostics."""
    if args.cutoff < 1:
        raise ValueError(f"--cutoff must be >= 1, got {args.cutoff}")
    report = spectrum_report(params, args.cutoff, num_states=args.states)
    levels = report.levels
    columns = (
        range(len(report.labels)),
        levels.energies.tolist(),
        report.labels,
        *levels.character.T.tolist(),
        np.sqrt(levels.r_squared).tolist(),
    )
    # One % over the repeated row template, as in cmd_apes.
    row = "%d,%.6f,%s,%.6f,%.6f,%.6f,%.6f\n"
    lines = [
        "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n",
        row * len(report.labels) % tuple(itertools.chain.from_iterable(zip(*columns))),
        f"delta_mev={report.delta:.6f}\n",
    ]
    return f"cutoff={args.cutoff} states={args.states}", lines, []


def cmd_apes(args: argparse.Namespace, params: PjtParams) -> _Result:
    """Classical sheet scan along X at Y = 0 as CSV; no diagnostics. It
    refuses and scans on the call; its rows are formatted as they are read."""
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
    grid = np.linspace(args.xmin, args.xmax, args.points)
    sheets = classical_apes(params, grid, 0.0)
    table = np.empty((args.points, 8))
    table[:, 0] = grid
    table[:, 1:5] = sheets.energies
    table[:, 5:] = sheets.characters[:, 0]
    row = ",".join(["%.6f"] * table.shape[1]) + "\n"
    blocks = (
        row * len(block) % tuple(block.ravel().tolist())
        for start in range(0, len(table), _APES_BLOCK_ROWS)
        for block in [table[start : start + _APES_BLOCK_ROWS]]
    )
    header = "x,e0_mev,e1_mev,e2_mev,e3_mev,w0_a2u,w0_a1u,w0_eu\n"
    settings = f"xmin={args.xmin:g} xmax={args.xmax:g} points={args.points} y=0"
    return settings, itertools.chain([header], blocks), []


def cmd_converge(args: argparse.Namespace, params: PjtParams) -> _Result:
    """Per-cutoff energies and delta as CSV; continues past failed cutoffs.

    args.cutoffs is the comma-separated ladder; converge_cutoff refuses one
    that is not strictly ascending or has fewer than two cutoffs. A failed
    cutoff gives a 'cutoff N: ...' diagnostic and no CSV row; a cutoff
    whose level pattern leaves delta undefined gives a diagnostic and
    delta_mev=nan.
    """
    # converge_cutoff would report a level count or cutoff that does not
    # fit as one failed row per cutoff, under a header with one column per
    # state; refuse such a ladder here once instead.
    if args.states < 3:
        raise ValueError(f"--states must be >= 3, got {args.states}")
    try:
        cutoffs = tuple(int(part) for part in args.cutoffs.split(","))
    except ValueError:
        raise ValueError(
            f"--cutoffs must be comma-separated integers, got {args.cutoffs!r}"
        ) from None
    if min(cutoffs) < 1:
        raise ValueError(f"--cutoffs values must be >= 1, got {args.cutoffs!r}")
    check_cutoff(max(cutoffs), args.states)
    study = converge_cutoff(params, cutoffs, args.states)
    energy_columns = ",".join(f"e{i}_mev" for i in range(args.states))
    template = "%d" + ",%.6f" * (args.states + 1) + "\n"
    lines = [f"cutoff,{energy_columns},delta_mev\n"]
    for row in study.rows:
        if row.energies is not None:
            lines.append(template % (row.cutoff, *row.energies.tolist(), row.delta))
    errors = [f"cutoff {row.cutoff}: {row.error}" for row in study.rows if row.error is not None]
    return f"cutoffs={','.join(map(str, cutoffs))} states={args.states}", lines, errors


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace, help, usage or error of the top-level parser's
    parse_args(argv), from one argparse pass where possible.

    The top-level parser hands every argument after the subcommand to that
    subcommand's parser and sets command to its name, so when argv starts
    with a subcommand whose parser takes the rest without leftovers, that
    parser's namespace is the top-level one. A help request or an error
    within that parse prints and exits as under the top-level parser, which
    would run the same subcommand parser on the same arguments. Anything
    else, leftovers included, goes through the top-level parser, which
    prints its own help, usage, version or error.
    """
    parser, subparsers = _parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in subparsers:
        args, rest = subparsers[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Returns the process exit status.

    argv defaults to sys.argv[1:]. A well-formed command is parsed in one
    argparse pass, by its subcommand's parser (see _parse_args): 0.017 ms
    for a cutoff-15 spectrum command against 0.039 ms through the top-level
    parser, of about 0.6 ms for the whole command (best of 3000 on a 2-core
    Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).

    The command computes and main writes: a 'warning:' line per distinct
    TruncationWarning, even when the command fails, then its diagnostics on
    standard error, then the '#' lines and the CSV. Diagnostics make the status 1.
    """
    args = _parse_args(argv)
    commands = {"spectrum": cmd_spectrum, "apes": cmd_apes, "converge": cmd_converge}
    try:
        params, source = _resolve_params(args)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                settings, lines, diagnostics = commands[args.command](args, params)
        finally:
            # A degenerate multiplet repeats one message; print it once, as the
            # default warning filter did.
            printed = set()
            for w in caught:
                if not issubclass(w.category, TruncationWarning):
                    warnings.showwarning(
                        w.message, w.category, w.filename, w.lineno, w.file, w.line
                    )
                elif str(w.message) not in printed:
                    printed.add(str(w.message))
                    print(f"warning: {w.message}", file=sys.stderr)
        for line in diagnostics:
            print(line, file=sys.stderr)
        with _open_output(args.output) as out:
            out.write(f"# pjtdiag {__version__} {args.command}\n# source={source}\n# {settings}\n")
            out.writelines(lines)
        return 1 if diagnostics else 0
    except (ConvergenceError, StateOrderingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ParamFileError is a ValueError; covers preset lookup, file access,
        # an unwritable --output, schema violations, and option validation.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
