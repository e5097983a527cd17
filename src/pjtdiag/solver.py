"""Basis-set convergence over a ladder of Fock cutoffs.

``converge_cutoff`` computes the lowest levels and delta at each cutoff of
a ladder, from the conserved-J sectors (``analysis.level_groups``), and
records a failed cutoff in its row instead of stopping the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import StateOrderingError, delta_from_groups, level_groups
from .hamiltonian import PjtParams
from .sectors import ConvergenceError, _index

__all__ = ["ConvergenceStudy", "CutoffResult", "converge_cutoff"]


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
    ground_tolerance: float

    @property
    def converged(self) -> bool:
        """True when the ground energies of the last two rows that have
        energies agree within ground_tolerance."""
        solved = [row for row in self.rows if row.energies is not None]
        if len(solved) < 2:
            return False
        return abs(solved[-1].energies[0] - solved[-2].energies[0]) < self.ground_tolerance


def converge_cutoff(
    params: PjtParams,
    cutoffs,
    num_states: int,
    *,
    tolerance: float = 1e-8,
    ground_tolerance: float = 1e-3,
) -> ConvergenceStudy:
    """Levels and delta at a ladder of Fock cutoffs, to monitor convergence.

    The ground energy is variational, so it must be non-increasing along an
    ascending ladder; the convergence flag compares the last two rows that
    have energies against ground_tolerance.

    Args:
        params: Model parameters.
        cutoffs: Strictly ascending integers, at least two.
        num_states: Levels to compute at every cutoff, >= 1.
        tolerance: Residual bound, meV.
        ground_tolerance: Ground-energy agreement defining "converged", meV.

    Returns:
        ConvergenceStudy with one row per cutoff.

    Raises:
        TypeError: a cutoff or num_states that is not an integer.
        ValueError: a ladder, level count or tolerance that no cutoff could
            satisfy; per-cutoff failures go into the rows instead.
    """
    ladder = [_index(c, f"cutoffs[{i}]") for i, c in enumerate(cutoffs)]
    if len(ladder) < 2:
        raise ValueError(f"need at least two cutoffs, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"cutoffs must be strictly ascending, got {ladder}")
    if _index(num_states, "num_states") < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if not ground_tolerance > 0:
        raise ValueError(f"ground_tolerance must be > 0, got {ground_tolerance}")

    rows: list[CutoffResult] = []
    for cutoff in ladder:
        try:
            energies, groups = level_groups(
                params, cutoff, num_states, tolerance=tolerance, compute_r=False
            )
        except (ValueError, ConvergenceError) as exc:
            rows.append(CutoffResult(cutoff, None, math.nan, str(exc)))
            continue
        try:
            rows.append(CutoffResult(cutoff, energies, delta_from_groups(groups)))
        except StateOrderingError as exc:
            rows.append(CutoffResult(cutoff, energies, math.nan, str(exc)))
    return ConvergenceStudy(rows=rows, ground_tolerance=ground_tolerance)
