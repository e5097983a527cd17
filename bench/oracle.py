"""Independent reference and output checker.

The reference imports nothing from pjtdiag. It builds the dense matrix

    H = hbar_omega (I4 x N) + B_X x X + B_Y x Y + W x I

from the five parameters with its own two-mode Fock operators (truncated at
n + m <= cutoff) and takes the lowest eigenvalues with
``scipy.linalg.eigvalsh``. The classical sheets are the eigenvalues of the
4x4 matrix hbar_omega (x^2 + y^2) / 2 + x B_X + y B_Y + W.

The checkers compare printed energies and ``delta_mev`` with the reference
to ``TOL_MEV`` and require a nondegenerate ground level with a degenerate
doublet above it. They compare no labels except that the doublet in the
``spectrum`` table is labelled ``Eu``. Each checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.linalg

TOL_MEV = 1e-6
# Gap above the ground level below which it counts as degenerate, meV.
GROUND_GAP_MEV = 1e-3
REFERENCE_DELTA_SHARE = 0.10

_S = 1.0 / math.sqrt(2.0)
# Symmetry-adapted combinations over the determinants
# (|e_uy e_gy>, |e_ux e_gy>, |e_uy e_gx>, |e_ux e_gx>).
_A2U = np.array([_S, 0.0, 0.0, _S])
_A1U = np.array([0.0, _S, -_S, 0.0])
_EUX = np.array([-_S, 0.0, 0.0, _S])
_EUY = np.array([0.0, _S, _S, 0.0])


def electronic_blocks(params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, B_X, B_Y) over the four determinants, meV.

    W puts A2u at -lambda, A1u at +lambda and both Eu components at -xi.
    The orbital couplings f_u and f_g add along X on the outer determinants
    and subtract on the inner ones; along Y they flip the ungerade (f_u) or
    the gerade (f_g) orbital.
    """
    _, lam, xi, f_g, f_u = params
    w = (
        -lam * np.outer(_A2U, _A2U)
        + lam * np.outer(_A1U, _A1U)
        - xi * (np.outer(_EUX, _EUX) + np.outer(_EUY, _EUY))
    )
    b_x = np.diag([f_u + f_g, f_g - f_u, f_u - f_g, -(f_u + f_g)])
    b_y = np.zeros((4, 4))
    b_y[0, 1] = b_y[1, 0] = b_y[2, 3] = b_y[3, 2] = f_u
    b_y[0, 2] = b_y[2, 0] = b_y[1, 3] = b_y[3, 1] = f_g
    return w, b_x, b_y


def phonon_operators(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (n + m + 1, X, Y) on the states n + m <= cutoff."""
    states = [(n, m) for n in range(cutoff + 1) for m in range(cutoff + 1 - n)]
    index = {nm: k for k, nm in enumerate(states)}
    size = len(states)
    x = np.zeros((size, size))
    y = np.zeros((size, size))
    for k, (n, m) in enumerate(states):
        if n + m < cutoff:
            j = index[(n + 1, m)]
            x[j, k] = x[k, j] = math.sqrt((n + 1) / 2.0)
            j = index[(n, m + 1)]
            y[j, k] = y[k, j] = math.sqrt((m + 1) / 2.0)
    number = np.diag([n + m + 1.0 for n, m in states])
    return number, x, y


def reflection_parity(cutoff: int) -> np.ndarray:
    """Eigenvalue (+1 or -1) of each product state under Y -> -Y.

    The reflection acts as (-1)^m on the phonons and as diag(1, -1, -1, 1)
    on the determinants, which flips the sign of B_Y and leaves B_X and W
    unchanged, so it commutes with H.
    """
    m = np.array([m for n in range(cutoff + 1) for m in range(cutoff + 1 - n)])
    return np.kron([1, -1, -1, 1], (-1) ** m)


class Oracle:
    """Reference levels and sheets; caches the phonon operators per cutoff."""

    def __init__(self) -> None:
        self._phonons: dict[int, tuple[np.ndarray, ...]] = {}

    def levels(self, params, cutoff: int, count: int) -> np.ndarray:
        """The ``count`` lowest eigenvalues at this cutoff, ascending.

        The two reflection sectors are diagonalized separately, which is
        four times cheaper than the whole matrix.
        """
        if cutoff not in self._phonons:
            parity = reflection_parity(cutoff)
            sectors = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
            self._phonons[cutoff] = (*phonon_operators(cutoff), *sectors)
        number, x, y, even, odd = self._phonons[cutoff]
        w, b_x, b_y = electronic_blocks(params)
        h = (
            params[0] * np.kron(np.eye(4), number)
            + np.kron(b_x, x)
            + np.kron(b_y, y)
            + np.kron(w, np.eye(number.shape[0]))
        )
        if np.any(h[np.ix_(even, odd)]):
            raise AssertionError("reference matrix breaks the Y -> -Y reflection")
        found = [
            scipy.linalg.eigvalsh(h[np.ix_(sector, sector)],
                                  subset_by_index=(0, min(count, sector.size) - 1))
            for sector in (even, odd)
        ]
        return np.sort(np.concatenate(found))[:count]

    @staticmethod
    def sheets(params, xs, y: float = 0.0) -> np.ndarray:
        """(len(xs), 4) ascending sheet energies along X at fixed Y."""
        w, b_x, b_y = electronic_blocks(params)
        xs = np.asarray(xs, dtype=float)
        h = (
            (0.5 * params[0] * (xs**2 + y * y))[:, None, None] * np.eye(4)
            + xs[:, None, None] * b_x
            + y * b_y
            + w
        )
        return np.linalg.eigvalsh(h)


def _table(text: str, columns: list[str]) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of the CSV body and the non-comment lines after it."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0].split(",") != columns:
        got = lines[0] if lines else "nothing"
        raise ValueError(f"expected header {','.join(columns)}, got {got!r}")
    body = [line for line in lines[1:] if "=" not in line]
    footer = [line for line in lines[1:] if "=" in line]
    rows = list(csv.DictReader(io.StringIO("\n".join([lines[0], *body]))))
    return rows, footer


def _compare(label: str, printed, reference) -> list[str]:
    printed = np.asarray(printed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if printed.shape != reference.shape:
        return [f"{label}: {printed.size} values, expected {reference.size}"]
    error = np.abs(printed - reference)
    if not np.all(error <= TOL_MEV):
        worst = int(np.argmax(np.where(np.isfinite(error), error, np.inf)))
        return [
            f"{label}: value {worst} is {printed[worst]:.6f}, "
            f"reference {reference[worst]:.6f}"
        ]
    return []


def _level_pattern(label: str, reference: np.ndarray, printed_delta: float) -> list[str]:
    """Nondegenerate ground, degenerate doublet above it, and delta."""
    if reference[1] - reference[0] <= GROUND_GAP_MEV:
        return [f"{label}: ground level is degenerate in the reference"]
    if reference[2] - reference[1] > TOL_MEV:
        return [f"{label}: levels 1 and 2 are not a doublet in the reference"]
    delta = 0.5 * (reference[1] + reference[2]) - reference[0]
    return _compare(f"{label} delta_mev", [printed_delta], [delta])


def check_spectrum(text: str, params, oracle: Oracle, cutoff: int, states: int,
                   reference_delta: float | None = None) -> list[str]:
    """Check the output of ``spectrum``."""
    try:
        rows, footer = _table(
            text, ["index", "energy_mev", "label", "w_a2u", "w_a1u", "w_eu", "r_dimensionless"]
        )
        energies = [float(row["energy_mev"]) for row in rows]
        labels = [row["label"] for row in rows]
        (delta_line,) = footer
        key, _, value = delta_line.partition("=")
        if key != "delta_mev":
            raise ValueError(f"unexpected footer {delta_line!r}")
        delta = float(value)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable CSV: {exc}"]
    reference = oracle.levels(params, cutoff, states)
    problems = _compare("energies", energies, reference)
    if problems:
        return problems
    problems = _level_pattern("spectrum", reference, delta)
    if labels[1:3] != ["Eu", "Eu"]:
        problems.append(f"levels 1 and 2 are labelled {labels[1:3]}, expected Eu")
    if reference_delta is not None and not (
        abs(delta - reference_delta) <= REFERENCE_DELTA_SHARE * reference_delta
    ):
        problems.append(f"delta {delta:.6f} is not within 10% of {reference_delta}")
    return problems


def check_converge(text: str, params, oracle: Oracle, cutoffs: list[int],
                   states: int) -> list[str]:
    """Check the output of ``converge``."""
    columns = ["cutoff", *(f"e{i}_mev" for i in range(states)), "delta_mev"]
    try:
        rows, footer = _table(text, columns)
        if footer:
            raise ValueError(f"unexpected footer {footer[0]!r}")
        printed = [int(row["cutoff"]) for row in rows]
        if printed != cutoffs:
            raise ValueError(f"cutoff column {printed}, expected {cutoffs}")
        energies = [[float(row[c]) for c in columns[1:-1]] for row in rows]
        deltas = [float(row["delta_mev"]) for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable CSV: {exc}"]
    problems: list[str] = []
    for cutoff, row_energies, delta in zip(cutoffs, energies, deltas):
        reference = oracle.levels(params, cutoff, states)
        found = _compare(f"cutoff {cutoff} energies", row_energies, reference)
        problems += found or _level_pattern(f"cutoff {cutoff}", reference, delta)
    return problems


def check_apes(text: str, params, oracle: Oracle, xs) -> list[str]:
    """Check the output of ``apes`` against the reference sheets."""
    columns = ["x", "e0_mev", "e1_mev", "e2_mev", "e3_mev", "w0_a2u", "w0_a1u", "w0_eu"]
    try:
        rows, footer = _table(text, columns)
        if footer:
            raise ValueError(f"unexpected footer {footer[0]!r}")
        printed_x = [float(row["x"]) for row in rows]
        sheets = [[float(row[c]) for c in columns[1:5]] for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable CSV: {exc}"]
    problems = _compare("x", printed_x, xs)
    if problems:
        return problems
    return _compare("sheet energies", np.ravel(sheets), np.ravel(oracle.sheets(params, xs)))
