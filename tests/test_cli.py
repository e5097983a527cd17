"""Command-line interface: flags, CSV layout, determinism, exit codes."""

import argparse
import contextlib
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pjtdiag
from pjtdiag import (
    PRESETS,
    PjtParams,
    StateOrderingError,
    TruncationWarning,
    classical_apes,
    cli,
    converge_cutoff,
    spectrum_report,
)
from pjtdiag.cli import APES_BYTES_PER_POINT, main

SIV_FILE = (
    "hbar_omega_mev=75.9\n"
    "lambda_mev=78.3\n"
    "xi_mev=45\n"
    "f_g_mev=95\n"
    "f_u_mev=103\n"
)


# Parameters around the presets' magnitudes, couplings and correlations
# down to zero.
PARAMS = st.builds(
    PjtParams,
    hbar_omega=st.floats(20.0, 150.0),
    lambda_corr=st.floats(0.0, 150.0),
    xi_corr=st.floats(0.0, 100.0),
    f_g=st.floats(0.0, 150.0),
    f_u=st.floats(0.0, 150.0),
)

# Without coupling and with Lambda = Xi the ground level ties with the Eu
# pair, so delta is undefined at every cutoff.
DECOUPLED = PjtParams(hbar_omega=80.0, lambda_corr=10.0, xi_corr=10.0, f_g=0.0, f_u=0.0)


def child_env():
    """Environment for a child ``python -m pjtdiag`` that imports the package
    these tests import: pytest's ``pythonpath`` setting does not reach it."""
    paths = [str(Path(pjtdiag.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_cli(capsys, *argv):
    """(exit status, or ("SystemExit", code), stdout, stderr) of one main call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_csv(text):
    """Return (header row, data rows, footer lines) from CSV output."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if "," in line]
    footers = [line for line in lines[1:] if "," not in line]
    return header, rows, footers


def test_spectrum_layout_and_delta(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--preset", "SiV")
    assert code == 0
    assert err == ""
    header, rows, footers = split_csv(out)
    assert header == [
        "index",
        "energy_mev",
        "label",
        "w_a2u",
        "w_a1u",
        "w_eu",
        "r_dimensionless",
    ]
    assert len(rows) == 8
    assert [row[0] for row in rows] == [str(k) for k in range(8)]
    assert rows[0][2] == "A2u"
    assert rows[1][2] == "Eu"
    assert footers and footers[0].startswith("delta_mev=")
    delta = float(footers[0].split("=", 1)[1])
    assert 6.0 <= delta <= 7.4
    # provenance comments carry the preset and cutoff
    comments = [line for line in out.splitlines() if line.startswith("#")]
    assert any("SiV" in line for line in comments)
    assert any("cutoff" in line for line in comments)


def test_spectrum_snv_delta_window(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--preset", "SnV")
    assert code == 0
    _, _, footers = split_csv(out)
    delta = float(footers[0].split("=", 1)[1])
    assert 8.4 <= delta <= 10.2


def test_spectrum_ground_energy_improves_with_cutoff(capsys):
    code_small, out_small, _ = run_cli(
        capsys, "spectrum", "--preset", "SiV", "--cutoff", "1", "--states", "3"
    )
    code_large, out_large, _ = run_cli(
        capsys, "spectrum", "--preset", "SiV", "--cutoff", "15", "--states", "3"
    )
    assert code_small == 0
    assert code_large == 0
    _, rows_small, _ = split_csv(out_small)
    _, rows_large, _ = split_csv(out_large)
    assert float(rows_large[0][1]) < float(rows_small[0][1])


def test_spectrum_deterministic(capsys):
    _, first, _ = run_cli(capsys, "spectrum", "--preset", "PbV")
    _, second, _ = run_cli(capsys, "spectrum", "--preset", "PbV")
    assert first == second


def test_spectrum_states_flag(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--preset", "GeV", "--states", "5"
    )
    assert code == 0
    _, rows, _ = split_csv(out)
    assert len(rows) == 5


def test_spectrum_labels_follow_j(capsys):
    # By J: 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 1, 1, 2, 2, 5, 5, 3, 3, 6, 6, 0, 1, 1, 4.
    code, out, _ = run_cli(
        capsys, "spectrum", "--preset", "SiV", "--cutoff", "15", "--states", "24"
    )
    assert code == 0
    _, rows, footers = split_csv(out)
    assert [row[2] for row in rows] == (
        ["A2u"] + ["Eu"] * 4 + ["A1u+A2u"] * 2 + ["A2u"] + ["Eu"] * 8
        + ["A1u+A2u"] * 4 + ["A2u"] + ["Eu"] * 3
    )
    assert footers == ["delta_mev=6.664543"]


def test_apes_origin_row(capsys):
    code, out, err = run_cli(capsys, "apes", "--preset", "SiV")
    assert code == 0
    header, rows, _ = split_csv(out)
    assert header == [
        "x",
        "e0_mev",
        "e1_mev",
        "e2_mev",
        "e3_mev",
        "w0_a2u",
        "w0_a1u",
        "w0_eu",
    ]
    assert len(rows) == 81
    origin = rows[40]
    assert float(origin[0]) == 0.0
    assert float(origin[1]) == pytest.approx(-78.3, abs=1e-6)
    assert float(origin[2]) == pytest.approx(-45.0, abs=1e-6)
    assert float(origin[3]) == pytest.approx(-45.0, abs=1e-6)
    assert float(origin[4]) == pytest.approx(78.3, abs=1e-6)
    assert float(origin[5]) == pytest.approx(1.0, abs=1e-6)


def test_apes_symmetric_and_reaches_trough(capsys):
    code, out, _ = run_cli(capsys, "apes", "--preset", "SiV")
    assert code == 0
    _, rows, _ = split_csv(out)
    lowest = [float(row[1]) for row in rows]
    assert min(lowest) <= -258.0
    for left, right in zip(lowest, reversed(lowest)):
        assert left == pytest.approx(right, abs=2e-6)


def test_apes_custom_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "apes",
        "--preset",
        "GeV",
        "--xmin",
        "-1",
        "--xmax",
        "1",
        "--points",
        "5",
    )
    assert code == 0
    _, rows, _ = split_csv(out)
    assert [float(row[0]) for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "xmin, xmax", [("-1e-3", "1"), ("-1E+2", "-1e0"), ("-.5", "0"), ("-4", "-1e-1")]
)
def test_apes_accepts_negative_float_spellings(capsys, xmin, xmax):
    code, out, err = run_cli(
        capsys, "apes", "--preset", "SiV", "--points", "3", "--xmin", xmin, "--xmax", xmax
    )
    assert (code, err) == (0, "")
    _, rows, _ = split_csv(out)
    assert [row[0] for row in rows[::2]] == ["%.6f" % float(xmin), "%.6f" % float(xmax)]
    assert run_cli(
        capsys, "apes", "--preset", "SiV", "--points", "3", f"--xmin={xmin}", f"--xmax={xmax}"
    ) == (0, out, "")


# An option, or a dash token that float() refuses, is not a value of --xmin.
@pytest.mark.parametrize("xmin", ["--xmax", "-e"])
def test_apes_refuses_a_dash_token_that_is_not_a_number(capsys, xmin):
    code, out, err = run_cli(capsys, "apes", "--preset", "SiV", "--xmin", xmin, "--xmax", "1")
    assert (code, out) == (("SystemExit", 2), "")
    assert err.endswith("error: argument --xmin: expected one argument\n")


BLOCK = cli._APES_BLOCK_ROWS


def apes_body(params, xmin, xmax, points):
    """(CSV body of cmd_apes, classical_apes's rows formatted one value at a time)."""
    args = argparse.Namespace(
        command="apes", xmin=xmin, xmax=xmax, points=points, output=None
    )
    _, lines, diagnostics = cli.cmd_apes(args, params)
    assert diagnostics == []
    header = "x,e0_mev,e1_mev,e2_mev,e3_mev,w0_a2u,w0_a1u,w0_eu\n"
    body = "".join(lines).split(header, 1)[1]
    xs = np.linspace(xmin, xmax, points)
    sheets = classical_apes(params, xs, 0.0)
    rows = np.column_stack([xs, sheets.energies, sheets.characters[:, 0]]).tolist()
    expected = "".join(",".join("%.6f" % value for value in row) + "\n" for row in rows)
    return body, expected


@settings(max_examples=40, deadline=None)
@given(
    params=PARAMS,
    xmin=st.floats(-6.0, 6.0),
    width=st.floats(1e-3, 12.0),
    points=st.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
)
def test_apes_rows_match_a_per_row_format(params, xmin, width, points):
    body, expected = apes_body(params, xmin, xmin + width, points)
    assert body == expected


def test_apes_prints_negative_zero_as_a_per_row_format_does():
    body, expected = apes_body(PRESETS["SiV"], -4e-7, 1.0, BLOCK + 1)
    assert body == expected
    assert body.startswith("-0.000000,")


@settings(max_examples=40, deadline=None)
@given(params=PARAMS, cutoff=st.integers(1, 15), states=st.integers(3, 12))
@example(params=DECOUPLED, cutoff=4, states=8)
def test_spectrum_rows_match_a_per_value_format(params, cutoff, states):
    args = argparse.Namespace(command="spectrum", cutoff=cutoff, states=states, output=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            report = spectrum_report(params, cutoff, states)
        except StateOrderingError:
            with pytest.raises(StateOrderingError):
                cli.cmd_spectrum(args, params)
            return
        _, lines, diagnostics = cli.cmd_spectrum(args, params)
    assert diagnostics == []
    header = "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n"
    body = "".join(lines).split(header, 1)[1]
    levels = report.levels
    rows = [
        [
            "%d" % k,
            "%.6f" % levels.energies[k],
            report.labels[k],
            *("%.6f" % weight for weight in levels.character[k]),
            "%.6f" % math.sqrt(levels.r_squared[k]),
        ]
        for k in range(states)
    ]
    footer = "delta_mev=%.6f\n" % report.delta
    assert body == "".join(",".join(row) + "\n" for row in rows) + footer


def test_converge_table(capsys):
    code, out, err = run_cli(
        capsys,
        "converge",
        "--preset",
        "SiV",
        "--cutoffs",
        "5,10,15,20",
        "--states",
        "4",
    )
    assert code == 0
    header, rows, _ = split_csv(out)
    assert header[0] == "cutoff"
    assert header[-1] == "delta_mev"
    assert len(rows) == 4
    ground = [float(row[1]) for row in rows]
    assert all(later < earlier for earlier, later in zip(ground, ground[1:]))
    deltas = {int(row[0]): float(row[-1]) for row in rows}
    assert abs(deltas[15] - deltas[20]) < 0.5


@settings(max_examples=40, deadline=None)
@given(
    params=PARAMS,
    ladder=st.lists(st.integers(1, 15), min_size=2, max_size=4, unique=True).map(sorted),
    states=st.integers(3, 14),
)
# 13 states do not fit at cutoff 1, and delta is undefined at cutoff 4.
@example(params=DECOUPLED, ladder=[1, 4], states=13)
def test_converge_rows_match_a_per_value_format(params, ladder, states):
    args = argparse.Namespace(
        command="converge", cutoffs=",".join(map(str, ladder)), states=states, output=None
    )
    _, lines, diagnostics = cli.cmd_converge(args, params)
    study = converge_cutoff(params, ladder, states)
    header = ",".join(["cutoff", *(f"e{i}_mev" for i in range(states)), "delta_mev"]) + "\n"
    body = "".join(lines).split(header, 1)[1]
    rows = [
        ["%d" % row.cutoff, *("%.6f" % energy for energy in row.energies), "%.6f" % row.delta]
        for row in study.rows
        if row.energies is not None
    ]
    assert body == "".join(",".join(row) + "\n" for row in rows)
    failed = [row for row in study.rows if row.error is not None]
    assert diagnostics == [f"cutoff {row.cutoff}: {row.error}" for row in failed]


@pytest.mark.parametrize(
    "argv, status, refused",
    [
        # Warning lines on standard error.
        (
            ("spectrum", "--preset", "SiV", "--cutoff", "4", "--states", "3"),
            0,
            [("--cutoff", "0", "--cutoff must be >= 1")],
        ),
        # Two blocks of rows.
        (
            ("apes", "--preset", "SiV", "--points", str(BLOCK + 1)),
            0,
            [("--points", "1", "--points must be >= 2"), ("--xmax", "inf", "scan range")],
        ),
        # A failed cutoff on standard error.
        (
            ("converge", "--preset", "SiV", "--cutoffs", "1,5", "--states", "13"),
            1,
            [("--states", "2", "--states must be >= 3")],
        ),
    ],
    ids=["spectrum", "apes", "converge"],
)
def test_output_file_holds_the_bytes_printed(tmp_path, capsys, argv, status, refused):
    code, out, err = run_cli(capsys, *argv)
    assert code == status
    assert (err != "") == (argv[0] != "apes")
    assert out.startswith(f"# pjtdiag {pjtdiag.__version__} {argv[0]}\n")
    target = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode("utf-8")
    # A command refuses a bad option when it is called, not when main reads
    # its lines, so that --output is never opened for it.
    command = getattr(cli, f"cmd_{argv[0]}")
    for option, value, message in refused:
        with pytest.raises(ValueError, match=message):
            command(cli._parse_args([*argv, option, value]), PRESETS["SiV"])


def test_converge_continues_past_failing_cutoff(capsys):
    # 13 states cannot fit at cutoff 1 (dimension 12); cutoff 5 still runs
    code, out, err = run_cli(
        capsys,
        "converge",
        "--preset",
        "SiV",
        "--cutoffs",
        "1,5",
        "--states",
        "13",
    )
    assert code == 1
    assert "cutoff 1" in err
    _, rows, _ = split_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == "5"


def test_unknown_preset_lists_alternatives(capsys):
    for name in ("NV", ""):
        code, out, err = run_cli(capsys, "spectrum", "--preset", name)
        assert code == 2, name
        assert out == "", name
        assert err == (
            f"error: unknown preset {name!r}; available presets: SiV, GeV, SnV, PbV\n"
        )


@pytest.mark.parametrize("spelling, name", [(" siv ", "SiV"), ("PBV", "PbV")])
def test_preset_names_ignore_case_and_surrounding_space(capsys, spelling, name):
    argv = ("spectrum", "--cutoff", "4", "--states", "3", "--preset")
    code, out, _ = run_cli(capsys, *argv, spelling)
    assert code == 0
    assert out.splitlines()[1] == f"# source=preset:{name}"
    assert run_cli(capsys, *argv, name)[:2] == (0, out)


def test_params_file_accepted(tmp_path, capsys):
    path = tmp_path / "siv.txt"
    path.write_text(SIV_FILE)
    code, out, err = run_cli(capsys, "spectrum", "--params", str(path))
    assert code == 0
    assert "source=file:" in out
    _, _, footers = split_csv(out)
    delta = float(footers[0].split("=", 1)[1])
    assert 6.0 <= delta <= 7.4


def test_line_breaks_in_a_params_path_stay_in_the_comment(tmp_path, capsys):
    header = "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless"
    bodies = []
    for name in ("siv.txt", "line\nbreak\r.txt"):
        path = tmp_path / name
        path.write_text(SIV_FILE)
        code, out, err = run_cli(capsys, "spectrum", "--params", str(path))
        assert (code, err) == (0, "")
        assert "\r" not in out
        lines = out.split("\n")
        start = lines.index(header)
        assert all(line.startswith("#") for line in lines[:start])
        bodies.append(lines[start:])
    assert f"# source=file:{tmp_path}/line\\nbreak\\r.txt" in lines
    assert bodies[0] == bodies[1]


def test_params_file_with_a_byte_order_mark(tmp_path, capsys):
    # Editors on Windows may save UTF-8 with a leading U+FEFF.
    path = tmp_path / "siv.txt"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(SIV_FILE, encoding=encoding)
        code, out, err = run_cli(capsys, "spectrum", "--params", str(path))
        assert (code, err) == (0, ""), encoding
        outputs.append(out)
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


def test_rejected_params_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(SIV_FILE + "e_jt1_mev=258\ne_jt2_mev=0.47\n")
    code, _, err = run_cli(capsys, "spectrum", "--params", str(path))
    assert code == 2
    assert "conflicting coupling specification" in err


def test_missing_params_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--params", "/no/such/file.txt")
    assert code == 2
    assert err != ""


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "sheets.csv"
    code, out, _ = run_cli(
        capsys,
        "apes",
        "--preset",
        "GeV",
        "--points",
        "5",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# pjtdiag")
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(data_lines) == 6


def test_truncation_reported_as_plain_lines_on_every_call(capsys):
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "spectrum", "--preset", "SiV", "--cutoff", "4", "--states", "3"
        )
        assert code == 0
        assert "delta_mev=" in out
        lines = err.splitlines()
        # The Eu doublet shares one message, printed once.
        assert [line[:15] for line in lines] == ["warning: 22.1% ", "warning: 27.2% "]
        assert all(line.endswith("increase the cutoff") for line in lines)
        assert ".py:" not in err


def test_truncation_lines_precede_a_failed_report(tmp_path, capsys):
    # Weak coupling and strong E-channel correlation put a doublet lowest.
    path = tmp_path / "inverted.txt"
    path.write_text(
        "hbar_omega_mev=75\nlambda_mev=0\nxi_mev=45\nf_g_mev=10\nf_u_mev=10\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "spectrum", "--params", str(path), "--cutoff", "2", "--states", "3"
    )
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert [line[:15] for line in lines[:2]] == ["warning: 1.5% o", "warning: 21.9% "]
    assert lines[2].startswith("error: lowest level is not a nondegenerate")
    assert len(lines) == 3


def test_truncation_lines_do_not_depend_on_warning_filters():
    for action in ("error", "ignore"):
        completed = subprocess.run(
            [sys.executable, "-W", action, "-m", "pjtdiag", "spectrum",
             "--preset", "SiV", "--cutoff", "4", "--states", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stderr.splitlines()
        assert [line[:15] for line in lines] == ["warning: 22.1% ", "warning: 27.2% "]


def test_main_leaves_the_warnings_module_as_it_found_it(tmp_path, capsys):
    # A report that warns, then one that fails after warning.
    path = tmp_path / "inverted.txt"
    path.write_text(
        "hbar_omega_mev=75\nlambda_mev=0\nxi_mev=45\nf_g_mev=10\nf_u_mev=10\n",
        encoding="utf-8",
    )
    filters, show = list(warnings.filters), warnings.showwarning
    for argv, status in [
        (("spectrum", "--preset", "SiV", "--cutoff", "4", "--states", "3"), 0),
        (("spectrum", "--params", str(path), "--cutoff", "2", "--states", "3"), 1),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err.startswith("warning: ")) == (status, True)
        assert warnings.filters == filters
        assert warnings.showwarning is show
    # The library's warning still meets the suite's error filter.
    with pytest.raises(TruncationWarning):
        spectrum_report(PRESETS["SiV"], 4, 3)


def test_spectrum_shows_other_warnings_as_usual(monkeypatch, capsys):
    report = cli.spectrum_report

    def noisy_report(*args, **kwargs):
        warnings.warn("unrelated", RuntimeWarning)
        return report(*args, **kwargs)

    monkeypatch.setattr(cli, "spectrum_report", noisy_report)
    with pytest.warns(RuntimeWarning, match="unrelated"):
        code, _, err = run_cli(
            capsys, "spectrum", "--preset", "SiV", "--cutoff", "4", "--states", "3"
        )
    assert code == 0
    assert err.count("warning: ") == 2


CLEAN_SPECTRUM = ("spectrum", "--preset", "SiV", "--cutoff", "6", "--states", "3")


@pytest.mark.parametrize(
    "argv, status",
    [
        (CLEAN_SPECTRUM, 0),
        (("apes", "--preset", "SiV", "--points", "5"), 0),
        # Default --cutoffs, which each call parses anew.
        (("converge", "--preset", "SiV", "--states", "3"), 0),
        (("--version",), ("SystemExit", 0)),
        (("spectrum",), ("SystemExit", 2)),
        (("spectrum", "--preset", "SiV", "--states", "2"), 2),
    ],
)
def test_repeated_calls_behave_like_fresh_ones(capsys, argv, status):
    clean = run_cli(capsys, *CLEAN_SPECTRUM)
    # The first call below builds new parsers, the later ones reuse them.
    cli._parser.cache_clear()
    first = run_cli(capsys, *argv)
    assert first[0] == status
    assert first[1] or first[2]
    assert run_cli(capsys, *argv) == first
    assert run_cli(capsys, *CLEAN_SPECTRUM) == clean


def parse_outcome(capsys, parse, argv):
    """(namespace, or ("SystemExit", code), stdout, stderr) of one parse."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


WELL_FORMED = [
    ("spectrum", "--preset", "SiV", "--cutoff", "6", "--states", "3"),
    ("apes", "--params", "x.txt", "--points", "5", "--output", "o.csv"),
    ("converge", "--preset", "SiV", "--cutoffs", "4,6", "--states", "3"),
    ("apes", "--preset", "SiV", "--xmin", "-inf", "--xmax", "-1e-3"),
    ("spectrum", "--pre", "SiV"),
]


@pytest.mark.parametrize(
    "argv",
    WELL_FORMED
    + [
        ("spectrum", "-h"),
        ("-h",),
        ("--version",),
        ("spectrum", "--preset", "SiV", "--version"),
        (),
        ("bogus",),
        ("spectrum",),
        ("spectrum", "--preset", "SiV", "stray"),
        ("spectrum", "--preset", "SiV", "--tolerance", "1e-8"),
        ("spectrum", "--", "--preset", "SiV"),
        ("spectrum", "--preset", "SiV", "--"),
        ("--", "spectrum", "--preset", "SiV"),
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_parse_matches_the_top_level_parser(capsys, argv):
    # The same namespace, or the same help, usage, version or error text
    # and exit code.
    parser, _ = cli._parser()
    expected = parse_outcome(capsys, parser.parse_args, argv)
    assert parse_outcome(capsys, cli._parse_args, argv) == expected


def test_top_level_parser_parses_only_what_a_subcommand_leaves(monkeypatch):
    parser, _ = cli._parser()
    calls = []
    parse_known_args = parser.parse_known_args

    def spy(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    for argv in WELL_FORMED:
        assert cli._parse_args(list(argv)).command == argv[0]
    monkeypatch.setattr(sys, "argv", ["pjtdiag", *WELL_FORMED[0]])
    assert cli._parse_args(None).cutoff == 6
    assert calls == []
    with pytest.raises(SystemExit):
        cli._parse_args(["spectrum", "--preset", "SiV", "stray"])
    assert len(calls) == 1


# The spectrum CSV of three presets at the default cutoff 15 and 8 states,
# byte for byte; the README transcript pins SiV.
PINNED_SPECTRA = {
    "GeV": (
        "# pjtdiag 0.1.0 spectrum\n"
        "# source=preset:GeV\n"
        "# cutoff=15 states=8\n"
        "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n"
        "0,-267.087762,A2u,0.533577,0.000000,0.466423,2.611033\n"
        "1,-259.476395,Eu,0.528801,0.000009,0.471190,2.687451\n"
        "2,-259.476395,Eu,0.528801,0.000009,0.471190,2.687451\n"
        "3,-239.786268,Eu,0.524680,0.000019,0.475301,2.846994\n"
        "4,-239.786268,Eu,0.524680,0.000019,0.475301,2.846994\n"
        "5,-212.112611,A1u+A2u,0.521800,0.000026,0.478174,3.026023\n"
        "6,-212.112611,A1u+A2u,0.521800,0.000026,0.478174,3.026023\n"
        "7,-187.245280,A2u,0.552078,0.000000,0.447922,2.830336\n"
        "delta_mev=7.611367\n"
    ),
    "SnV": (
        "# pjtdiag 0.1.0 spectrum\n"
        "# source=preset:SnV\n"
        "# cutoff=15 states=8\n"
        "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n"
        "0,-243.871749,A2u,0.546571,0.000000,0.453429,2.429651\n"
        "1,-234.467460,Eu,0.537365,0.000051,0.462584,2.523703\n"
        "2,-234.467460,Eu,0.537365,0.000051,0.462584,2.523703\n"
        "3,-211.126383,Eu,0.531117,0.000102,0.468781,2.705614\n"
        "4,-211.126383,Eu,0.531117,0.000102,0.468781,2.705614\n"
        "5,-179.274809,A1u+A2u,0.527136,0.000131,0.472733,2.900246\n"
        "6,-179.274809,A1u+A2u,0.527136,0.000131,0.472733,2.900246\n"
        "7,-160.211793,A2u,0.574331,0.000000,0.425669,2.675790\n"
        "delta_mev=9.404289\n"
    ),
    "PbV": (
        "# pjtdiag 0.1.0 spectrum\n"
        "# source=preset:PbV\n"
        "# cutoff=15 states=8\n"
        "index,energy_mev,label,w_a2u,w_a1u,w_eu,r_dimensionless\n"
        "0,-229.354114,A2u,0.572792,0.000000,0.427208,2.301185\n"
        "1,-218.478339,Eu,0.557651,0.000124,0.442226,2.416274\n"
        "2,-218.478339,Eu,0.557651,0.000124,0.442226,2.416274\n"
        "3,-192.864890,Eu,0.548152,0.000243,0.451605,2.615326\n"
        "4,-192.864890,Eu,0.548152,0.000243,0.451605,2.615326\n"
        "5,-158.733065,A1u+A2u,0.542160,0.000313,0.457527,2.820537\n"
        "6,-158.733065,A1u+A2u,0.542160,0.000313,0.457527,2.820537\n"
        "7,-145.801790,A2u,0.610072,0.000000,0.389928,2.560782\n"
        "delta_mev=10.875775\n"
    ),
}


@pytest.mark.parametrize("preset", sorted(PINNED_SPECTRA))
def test_spectrum_csv_is_pinned(capsys, preset):
    assert run_cli(capsys, "spectrum", "--preset", preset) == (0, PINNED_SPECTRA[preset], "")


def test_source_flag_required():
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum"])
    assert excinfo.value.code == 2


def test_preset_and_file_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--preset", "SiV", "--params", "x.txt"])
    assert excinfo.value.code == 2


# Runs in a fresh interpreter. The modules loaded before pjtdiag are set
# aside, because site may load _distutils_hack or certifi through .pth files.
# Every module, the three subcommands and the high-level functions then run,
# and every top-level module they load must be in the standard library or be
# numpy.
_IMPORT_SCRIPT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])

import contextlib, importlib, io, pkgutil
import pjtdiag
for module in pkgutil.iter_modules(pjtdiag.__path__):
    importlib.import_module(f"pjtdiag.{module.name}")
import pjtdiag.cli
from pjtdiag import PRESETS, classical_apes, converge_cutoff, spectrum_report

params = PRESETS["SiV"]
for argv in (
    ["spectrum", "--preset", "SiV", "--cutoff", "6", "--states", "3"],
    ["apes", "--preset", "SiV", "--points", "5"],
    ["converge", "--preset", "SiV", "--cutoffs", "4,6", "--states", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert pjtdiag.cli.main(argv) == 0, argv
assert spectrum_report(params, 6, 3).delta > 0
assert classical_apes(params, [0.0, 1.0], 0.0).energies.shape == (2, 4)
assert [row.error for row in converge_cutoff(params, (4, 6), 3).rows] == [None, None]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
outside = loaded - set(sys.stdlib_module_names) - {"numpy", "pjtdiag"}
assert not outside, sorted(outside)
print("ok")
"""


def test_cli_path_imports_only_stdlib_and_numpy():
    src = str(Path(pjtdiag.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _IMPORT_SCRIPT, src],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "ok\n"


def test_module_entry_point():
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pjtdiag",
            "spectrum",
            "--preset",
            "SiV",
            "--cutoff",
            "6",
            "--states",
            "3",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert completed.returncode == 0
    assert "delta_mev=" in completed.stdout


def test_every_name_in_all_resolves():
    # A name left behind in __all__ when its object moves fails here rather
    # than at a star import.
    modules = [pjtdiag] + [
        importlib.import_module(f"pjtdiag.{module.name}")
        for module in pkgutil.iter_modules(pjtdiag.__path__)
        if module.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert not missing


def test_apes_footprint_per_point(tmp_path):
    # The --points refusal assumes APES_BYTES_PER_POINT held until the first row.
    # Both counts exceed one block of written rows, whose floats would
    # otherwise grow with the count too, and the scan sets the peak at both.
    target = str(tmp_path / "apes.csv")
    main(["apes", "--preset", "SiV", "--points", "10", "--output", target])
    peaks = []
    for points in (4096, 12288):
        tracemalloc.start()
        try:
            main(["apes", "--preset", "SiV", "--points", str(points), "--output", target])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_point = (peaks[1] - peaks[0]) / 8192
    assert 0.5 * APES_BYTES_PER_POINT < per_point < 1.5 * APES_BYTES_PER_POINT


def test_unwritable_output_rejected(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.csv")
    for argv in (
        ("spectrum", "--preset", "SiV"),
        ("apes", "--preset", "SiV", "--points", "5"),
        ("converge", "--preset", "SiV", "--cutoffs", "5,10", "--states", "3"),
    ):
        code, out, err = run_cli(capsys, *argv, "--output", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "out.csv" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("spectrum", "--states", "2"), "num_states must be >= 3"),
        (("spectrum", "--cutoff", "1000"),
         "cutoff 1000 needs 30671 MiB of sector matrices, beyond the 256 MiB limit"),
        (("spectrum", "--cutoff", "0"), "--cutoff must be >= 1"),
        (("apes", "--xmax", "inf"), "scan range must be finite"),
        (("apes", "--points", "3", "--xmin", "0", "--xmax", "1e308"),
         "sheet energies at (5e+307, 0.0) are beyond the float range"),
        (("converge", "--states", "2"), "--states must be >= 3"),
        (("converge", "--cutoffs", "0,5"), "--cutoffs values must be >= 1, got '0,5'"),
        (("apes", "--points", "100000000"),
         "--points 100000000 needs 28229 MiB of scan points, beyond the 256 MiB limit"),
        (("converge", "--cutoffs", "1,2", "--states", "200000"),
         "num_states 200000 exceeds matrix dimension 24"),
        (("apes", "--xmin", "-inf"), "scan range must be finite"),
        (("apes", "--xmin", "-nan"), "scan range must be finite"),
        (("converge", "--cutoffs", "5"), "need at least two cutoffs, got [5]"),
        (("converge", "--cutoffs", "15,10"), "cutoffs must be strictly ascending, got [15, 10]"),
        (("apes", "--xmin", "2", "--xmax", "-2"),
         "--xmax must be greater than --xmin, got [2.0, -2.0]"),
        (("apes", "--points", "1"), "--points must be >= 2, got 1"),
        (("spectrum", "--cutoff", "1", "--states", "20"),
         "num_states 20 exceeds matrix dimension 12"),
        (("converge", "--cutoffs", "5,1000"),
         "cutoff 1000 needs 30671 MiB of sector matrices, beyond the 256 MiB limit"),
        *(
            (("converge", "--cutoffs", cutoffs, "--states", "3"),
             f"--cutoffs must be comma-separated integers, got {cutoffs!r}")
            for cutoffs in ("4,,6", "4,6,", ",4,6", "4, ,6")
        ),
    ],
)
def test_refusals_exit_before_output(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--preset", "SiV", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    target = tmp_path / "out.csv"
    assert run_cli(capsys, argv[0], "--preset", "SiV", *argv[1:], "--output", str(target)) == (
        code, out, err
    )
    assert not target.exists()


def test_points_above_906876_refused(capsys):
    # The scan ceiling the README states beside the cutoff ceiling.
    limit = pjtdiag.sectors.MAX_DENSE_BYTES
    assert 906876 * APES_BYTES_PER_POINT <= limit < 906877 * APES_BYTES_PER_POINT
    code, out, err = run_cli(capsys, "apes", "--preset", "SiV", "--points", "906877")
    assert (code, out) == (2, "")
    assert err == "error: --points 906877 needs 257 MiB of scan points, beyond the 256 MiB limit\n"


@pytest.mark.parametrize("command", ["spectrum", "converge"])
def test_tolerance_flag_is_gone(capsys, command):
    # Residuals are checked against the resolution of the sector matrices.
    code, out, err = run_cli(capsys, command, "--preset", "SiV", "--tolerance", "1e-8")
    assert code == ("SystemExit", 2)
    assert out == ""
    assert "unrecognized arguments: --tolerance 1e-8" in err


def test_matrix_beyond_float_range_refused(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(
        "hbar_omega_mev=7.59e307\nlambda_mev=7.83e307\nxi_mev=4.5e307\n"
        "f_g_mev=9.5e307\nf_u_mev=1.03e308\n"
    )
    code, out, err = run_cli(capsys, "spectrum", "--params", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: matrix elements at cutoff 15 are beyond the float range\n"
    code, out, err = run_cli(capsys, "converge", "--params", str(path), "--cutoffs", "2,4")
    assert code == 1
    assert split_csv(out)[1] == []
    assert err.splitlines() == [
        f"cutoff {c}: matrix elements at cutoff {c} are beyond the float range" for c in (2, 4)
    ]


def test_unconverged_levels_exit_1(perturbed_eigh, capsys):
    code, out, err = run_cli(capsys, "spectrum", "--preset", "SiV")
    assert code == 1
    assert out == ""
    assert err.startswith("error: sector residuals up to ")
    assert "exceed the resolution" in err
