"""Physical observables from the J-sector levels.

Every level is labelled from its exact quantum numbers, the conserved
J = L_z + S and, at J = 0, its parity under the reflection Y -> -Y
(Longuet-Higgins, Opik, Pryce & Sack, Proc. R. Soc. A 244, 1 (1958);
Bersuker, The Jahn-Teller Effect (2006)): the even J = 0 levels are A2u,
the odd ones A1u, a pair of |J| a nonzero multiple of 3 is A1u + A2u
(degenerate in this linear model), and any other pair of +-J is Eu. The
splitting delta runs from the ground level, which must be even J = 0, to
the lowest Eu-type level; a ground level that ties with another to
rounding is refused. The module also holds the cutoff convergence
ladder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PjtParams
from .sectors import ConvergenceError, SectorLevels, as_index, lowest_levels

__all__ = [
    "ConvergenceStudy",
    "CutoffResult",
    "SpectrumReport",
    "StateOrderingError",
    "TruncationWarning",
    "converge_cutoff",
    "spectrum_report",
]

# Fraction of probability in the top two Fock shells above which position
# expectation values are considered truncation-contaminated.
_TOP_SHELL_LIMIT = 0.01

# Ground-energy agreement of the last two solved rows that makes a ladder
# converged, meV.
_GROUND_TOLERANCE_MEV = 1e-3


class TruncationWarning(UserWarning):
    """State carries significant weight in the top Fock shells, so position
    expectation values are biased by the basis cutoff."""


class StateOrderingError(RuntimeError):
    """Computed levels do not show a nondegenerate A2u-type ground state
    below an Eu-type doublet."""


def _label(j: int, parity: int) -> str:
    """Vibronic label of a level of J and, at J = 0, reflection parity."""
    if j == 0:
        return "A2u" if parity > 0 else "A1u"
    return "A1u+A2u" if j % 3 == 0 else "Eu"


def _delta(levels: SectorLevels) -> float:
    """Energy of the lowest Eu-type level minus the ground energy, meV.

    Raises:
        StateOrderingError: the ground level is degenerate or not the even
            J = 0 one, or no level of J other than a multiple of 3 was
            computed.
    """
    j, parity, energies = levels.j, levels.parity, levels.energies
    # The ground multiplet: the levels that tie with the lowest to rounding,
    # among which rounding alone picks the first.
    ground = np.flatnonzero(energies - energies[0] <= levels.resolution)
    if ground.size > 1 or j[0] != 0 or parity[0] < 0:
        labels = ", ".join(sorted(_label(j[i], parity[i]) for i in ground))
        raise StateOrderingError(
            "lowest level is not a nondegenerate A2u-type state "
            f"(multiplicity {ground.size}: {labels}); "
            "the parameter regime breaks the expected ordering"
        )
    doublets = np.flatnonzero(j % 3)
    if not doublets.size:
        raise StateOrderingError(
            "no Eu-type doublet among the computed levels; request more states"
        )
    return float(energies[doublets[0]] - energies[0])


@dataclass(eq=False)
class CutoffResult:
    """Outcome at one Fock cutoff.

    ``energies`` is None when the levels could not be computed; ``delta``
    is nan when they were not, or when they lack the level pattern that
    defines it. ``error`` holds the failure message in either case.
    """

    cutoff: int
    energies: np.ndarray | None
    delta: float
    error: str | None = None


@dataclass(eq=False)
class ConvergenceStudy:
    """Per-cutoff levels and delta from converge_cutoff."""

    rows: list[CutoffResult]

    @property
    def converged(self) -> bool:
        """True when the ground energies of the last two rows that have
        energies agree within 1e-3 meV."""
        solved = [row for row in self.rows if row.energies is not None]
        if len(solved) < 2:
            return False
        return abs(solved[-1].energies[0] - solved[-2].energies[0]) < _GROUND_TOLERANCE_MEV


def converge_cutoff(params: PjtParams, cutoffs, num_states: int) -> ConvergenceStudy:
    """Levels and delta at a ladder of Fock cutoffs, to monitor convergence.

    The ground energy is variational, so it must be non-increasing along an
    ascending ladder; the convergence flag compares the last two rows that
    have energies to within 1e-3 meV. A cutoff whose levels or delta
    cannot be computed is recorded in its row instead of stopping the
    ladder: a cutoff refused by lowest_levels, a residual above the
    resolution, or a level pattern without delta.

    Args:
        params: Model parameters.
        cutoffs: Strictly ascending integers, at least two.
        num_states: Levels to compute at every cutoff, >= 1.

    Returns:
        ConvergenceStudy with one row per cutoff.

    Raises:
        TypeError: a cutoff or num_states that is not an integer.
        ValueError: a ladder or level count that no cutoff could satisfy;
            per-cutoff failures go into the rows instead.
    """
    ladder = [as_index(c, f"cutoffs[{i}]") for i, c in enumerate(cutoffs)]
    if len(ladder) < 2:
        raise ValueError(f"need at least two cutoffs, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"cutoffs must be strictly ascending, got {ladder}")
    if as_index(num_states, "num_states") < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")

    rows: list[CutoffResult] = []
    for cutoff in ladder:
        try:
            levels = lowest_levels(params, cutoff, num_states)
        except (ValueError, ConvergenceError) as exc:
            rows.append(CutoffResult(cutoff, None, math.nan, str(exc)))
            continue
        try:
            rows.append(CutoffResult(cutoff, levels.energies, _delta(levels)))
        except StateOrderingError as exc:
            rows.append(CutoffResult(cutoff, levels.energies, math.nan, str(exc)))
    return ConvergenceStudy(rows=rows)


@dataclass(eq=False)
class SpectrumReport:
    """Low-lying vibronic spectrum and delta.

    levels is the SectorLevels of the computation, unchanged: energies,
    signed J, parity, characters (w_a2u, w_a1u, w_eu), R^2, top-shell
    weights, residuals and the resolution they are accepted against.
    labels names each level's vibronic type from its J and, at J = 0, its
    reflection parity; a level of J != 0 is one of the degenerate pair +-J.
    The label is not read off the weights: in the strong-coupling regime
    every low level carries roughly half A2u and half Eu electronic weight.
    """

    levels: SectorLevels
    labels: tuple[str, ...]
    delta: float


def spectrum_report(params: PjtParams, cutoff: int, num_states: int = 8) -> SpectrumReport:
    """Solve, label, and package the low-lying spectrum.

    Each level is labelled from its J and reflection parity. The two
    levels of a pair +-J share their characters and R exactly; a request
    that ends inside a pair reports only its first member. Warns with
    TruncationWarning for each level with more than 1% weight in the top
    two Fock shells. Every level's residual is at most
    SectorLevels.resolution, which scales with the energies, as do the
    ties: the delta of s * params is s times that of params, to the
    resolution.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff.
        num_states: Levels to report, >= 3.

    Returns:
        SpectrumReport holding the num_states levels of lowest_levels in
        ascending order, their labels, and delta > 0 in the expected regime.

    Raises:
        TypeError: a cutoff or num_states that is not an integer.
        ValueError: invalid request, or matrix elements beyond the float range.
        ConvergenceError: a residual exceeds the resolution.
        StateOrderingError: the level pattern needed to define delta is
            absent: the ground level is degenerate or not A2u-type, or no
            Eu-type level was computed.
    """
    if as_index(num_states, "num_states") < 3:
        raise ValueError(f"num_states must be >= 3, got {num_states}")
    levels = lowest_levels(params, cutoff, num_states)
    # Python scalars, which format and compare faster than numpy's.
    for top_weight in levels.top_shell_weight.tolist():
        if top_weight > _TOP_SHELL_LIMIT:
            warnings.warn(
                f"{top_weight:.1%} of the state sits in the top two Fock shells; "
                "R is truncation-contaminated, increase the cutoff",
                TruncationWarning,
                stacklevel=2,
            )
    delta = _delta(levels)
    labels = tuple(map(_label, levels.j.tolist(), levels.parity.tolist()))
    return SpectrumReport(levels=levels, labels=labels, delta=delta)
