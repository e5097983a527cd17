"""Command-line interface: flags, CSV layout, determinism, exit codes."""

import argparse
import contextlib
import io
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjtdiag
from pjtdiag import PRESETS, PjtParams, apes_scan, cli
from pjtdiag.cli import APES_BYTES_PER_POINT, main

SIV_FILE = (
    "hbar_omega_mev=75.9\n"
    "lambda_mev=78.3\n"
    "xi_mev=45\n"
    "f_g_mev=95\n"
    "f_u_mev=103\n"
)


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


BLOCK = cli._APES_BLOCK_ROWS


def apes_body(params, xmin, xmax, points):
    """(CSV body of cmd_apes, apes_scan's rows formatted one value at a time)."""
    args = argparse.Namespace(
        command="apes", xmin=xmin, xmax=xmax, points=points, output=None
    )
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.cmd_apes(args, params, "preset:test") == 0
    header = "x,e0_mev,e1_mev,e2_mev,e3_mev,w0_a2u,w0_a1u,w0_eu\n"
    body = out.getvalue().split(header, 1)[1]
    xs = np.linspace(xmin, xmax, points)
    sheets = apes_scan(params, xs)
    rows = np.column_stack([xs, sheets.energies, sheets.characters[:, 0]]).tolist()
    expected = "".join(",".join("%.6f" % value for value in row) + "\n" for row in rows)
    return body, expected


@settings(max_examples=40, deadline=None)
@given(
    params=st.builds(
        PjtParams,
        hbar_omega=st.floats(20.0, 150.0),
        lambda_corr=st.floats(0.0, 150.0),
        xi_corr=st.floats(0.0, 100.0),
        f_g=st.floats(0.0, 150.0),
        f_u=st.floats(0.0, 150.0),
    ),
    xmin=st.floats(-6.0, 6.0),
    width=st.floats(1e-3, 12.0),
    points=st.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
)
def test_apes_rows_match_a_per_row_format(params, xmin, width, points):
    body, expected = apes_body(params, xmin, xmin + width, points)
    assert body == expected


def test_apes_prints_negative_zero_as_a_per_row_format_does():
    body, expected = apes_body(PRESETS["SiV"].params, -4e-7, 1.0, BLOCK + 1)
    assert body == expected
    assert body.startswith("-0.000000,")


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
    code, out, err = run_cli(capsys, "spectrum", "--preset", "NV")
    assert code == 2
    assert "SiV" in err
    assert "PbV" in err


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


def test_invalid_scan_range_rejected(capsys):
    code, _, err = run_cli(
        capsys, "apes", "--preset", "SiV", "--xmin", "2", "--xmax", "-2"
    )
    assert code == 2
    assert "xmax" in err


def test_too_few_points_rejected(capsys):
    code, _, err = run_cli(capsys, "apes", "--preset", "SiV", "--points", "1")
    assert code == 2


def test_bad_cutoff_list_rejected(capsys):
    code, _, err = run_cli(
        capsys, "converge", "--preset", "SiV", "--cutoffs", "15,10"
    )
    assert code == 2
    assert "ascending" in err


@pytest.mark.parametrize("cutoffs", ["4,,6", "4,6,", ",4,6", "4, ,6"])
def test_cutoff_list_with_an_empty_item_rejected(capsys, cutoffs):
    code, out, err = run_cli(
        capsys, "converge", "--preset", "SiV", "--cutoffs", cutoffs, "--states", "3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"error: --cutoffs must be comma-separated integers, got {cutoffs!r}"
    )


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
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stderr.splitlines()
        assert [line[:15] for line in lines] == ["warning: 22.1% ", "warning: 27.2% "]


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
        # Default --cutoffs: the checks replace it on the parsed namespace.
        (("converge", "--preset", "SiV", "--states", "3"), 0),
        (("--version",), ("SystemExit", 0)),
        (("spectrum",), ("SystemExit", 2)),
        (("spectrum", "--preset", "SiV", "--states", "2"), 2),
    ],
)
def test_repeated_calls_behave_like_fresh_ones(capsys, argv, status):
    clean = run_cli(capsys, *CLEAN_SPECTRUM)
    # The first call below builds a new parser, the later ones reuse it.
    cli._parser.cache_clear()
    first = run_cli(capsys, *argv)
    assert first[0] == status
    assert first[1] or first[2]
    assert run_cli(capsys, *argv) == first
    assert run_cli(capsys, *CLEAN_SPECTRUM) == clean


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
from pjtdiag import PRESETS, apes_scan, converge_cutoff, delta_splitting

params = PRESETS["SiV"].params
for argv in (
    ["spectrum", "--preset", "SiV", "--cutoff", "6", "--states", "3"],
    ["apes", "--preset", "SiV", "--points", "5"],
    ["converge", "--preset", "SiV", "--cutoffs", "4,6", "--states", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert pjtdiag.cli.main(argv) == 0, argv
assert delta_splitting(params, 6) > 0
assert apes_scan(params, [0.0, 1.0]).energies.shape == (2, 4)
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
    )
    assert completed.returncode == 0
    assert "delta_mev=" in completed.stdout


def test_spectrum_more_states_than_dimension_rejected(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--preset", "SiV", "--cutoff", "1", "--states", "20"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "exceeds matrix dimension 12" in err


def test_apes_range_beyond_float_range_rejected(capsys):
    code, out, err = run_cli(
        capsys, "apes", "--preset", "SiV", "--points", "3", "--xmin", "0", "--xmax", "1e308"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cutoff_beyond_memory_limit_rejected(capsys):
    for argv in (
        ("spectrum", "--preset", "SiV", "--cutoff", "1000"),
        ("converge", "--preset", "SiV", "--cutoffs", "5,1000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "MiB" in err


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
         "cutoff 1000 needs 30670 MiB of sector matrices, beyond the 256 MiB limit"),
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
    ],
)
def test_refusals_exit_before_output(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--preset", "SiV", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


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
    assert err.startswith("error: solver did not converge: sector residuals up to ")
    assert "exceed the resolution" in err
