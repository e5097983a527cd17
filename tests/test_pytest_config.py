"""The test configuration itself: a failing property test is reported, and a
mistyped marker or configuration key, or an xfail test that passes, is an
error."""

import os
import subprocess
import sys
from pathlib import Path

import pjtdiag

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""

MISTYPED_MARKER = """\
import pytest


@pytest.mark.acceptence(1, "a mistyped acceptance marker")
def test_marked():
    pass
"""


PLAIN_TEST = """\
def test_plain():
    pass
"""

PASSING_XFAIL = """\
import pytest


@pytest.mark.xfail(reason="expected to fail")
def test_expected_to_fail():
    pass
"""


def run_pytest(tmp_path, name, source, config=PYPROJECT):
    """Combined output and exit status of pytest on one test file, written to
    tmp_path, under the configuration of pyproject.toml or of config."""
    (tmp_path / name).write_text(source)
    env = dict(os.environ, PYTHONPATH=str(Path(pjtdiag.__file__).parents[1]))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(config), "--rootdir", str(tmp_path), name,
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.stdout + result.stderr, result.returncode


def test_failing_property_test_reports_its_example(tmp_path):
    # Runs under the warning filters of pyproject.toml. Where libcst is
    # installed, Hypothesis imports it to write a patch file for the failure.
    output, status = run_pytest(tmp_path, "test_fails.py", FAILING_PROPERTY)
    assert status == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_mistyped_marker_is_a_collection_error(tmp_path):
    # Without --strict-markers the test passes with a warning, and its line
    # drops out of the acceptance summary.
    output, status = run_pytest(tmp_path, "test_marked.py", MISTYPED_MARKER)
    assert status == 2, output
    assert "'acceptence' not found in `markers` configuration option" in output
    assert "1 error" in output


def test_mistyped_config_key_is_an_error(tmp_path):
    # Without strict_config the run passes with a PytestConfigWarning, and
    # none of the warning filters is in force.
    config = tmp_path / "pyproject.toml"
    config.write_text(PYPROJECT.read_text().replace("filterwarnings =", "filterwarning =", 1))
    output, status = run_pytest(tmp_path, "test_plain.py", PLAIN_TEST, config)
    assert status == 4, output
    assert "Unknown config option: filterwarning" in output
    assert "passed" not in output


def test_passing_xfail_test_fails_the_run(tmp_path):
    # Without xfail_strict the run passes and reports "1 xpassed".
    output, status = run_pytest(tmp_path, "test_xfail.py", PASSING_XFAIL)
    assert status == 1, output
    assert "[XPASS(strict)]" in output
