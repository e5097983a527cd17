"""Shared fixtures and per-criterion result reporting.

Tests marked ``@pytest.mark.acceptance(num=..., title=...)`` get one summary
line each at the end of the run, so the gate can be read at a glance.
"""

import numpy as np
import pytest

from pjtdiag import PRESETS
from reference import assemble, build_basis, solve

_RESULTS = {}

_STATUS = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    relevant = report.when == "call" or (
        report.when == "setup" and report.outcome in ("skipped", "failed")
    )
    if not relevant:
        return
    num = marker.kwargs.get("num", 0)
    title = marker.kwargs.get("title", item.name)
    status = _STATUS.get(report.outcome, report.outcome.upper())
    previous = _RESULTS.get(num)
    if previous is None or previous[1] == "PASS":
        _RESULTS[num] = (title, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, status = _RESULTS[num]
        terminalreporter.write_line(f"criterion {num}: {status} - {title}")


@pytest.fixture(scope="session")
def siv_solution():
    """Lowest eight eigenpairs of the SiV preset at cutoff 15, solved once."""
    basis = build_basis(15)
    hamiltonian = assemble(PRESETS["SiV"].params, basis)
    result = solve(hamiltonian, 8)
    return basis, result


@pytest.fixture
def perturbed_eigh(monkeypatch):
    """np.linalg.eigh with every eigenvector component raised by 1e-6, so
    that the residuals lie far above the resolution of any sector matrix."""
    eigh = np.linalg.eigh

    def perturbed(stack):
        values, vectors = eigh(stack)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
