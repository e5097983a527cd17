"""The test configuration itself: a failing property test is reported."""

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


def test_failing_property_test_reports_its_example(tmp_path):
    # Runs under the warning filters of pyproject.toml. Where libcst is
    # installed, Hypothesis imports it to write a patch file for the failure.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ, PYTHONPATH=str(Path(pjtdiag.__file__).parents[1]))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
