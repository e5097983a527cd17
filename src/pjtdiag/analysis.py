"""Physical observables from the J-sector levels.

Grouping of the lowest levels into degenerate multiplets with pooled
electronic characters and distortion R, the splitting delta between the
lowest A2u-type state and the Eu-type doublet, and classical sheet scans
along a line of X (one stacked hamiltonian.ApesPoint whose arrays lead with
the grid axis and which carries the per-sheet characters).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ApesPoint, PjtParams, classical_apes
from .sectors import lowest_levels

__all__ = [
    "DEGENERACY_TOL_MEV",
    "LevelGroup",
    "SpectrumReport",
    "StateOrderingError",
    "TruncationWarning",
    "VibronicState",
    "apes_scan",
    "delta_from_groups",
    "delta_splitting",
    "level_groups",
    "spectrum_report",
]

# Energies closer than this are treated as one degenerate multiplet.
DEGENERACY_TOL_MEV = 1e-6

# Fraction of probability in the top two Fock shells above which position
# expectation values are considered truncation-contaminated.
_TOP_SHELL_LIMIT = 0.01


class TruncationWarning(UserWarning):
    """State carries significant weight in the top Fock shells, so position
    expectation values are biased by the basis cutoff."""


class StateOrderingError(RuntimeError):
    """Computed levels do not show a nondegenerate A2u-type ground state
    below an Eu-type doublet."""


def _warn_if_truncated(top_weight: float, stacklevel: int) -> None:
    if top_weight > _TOP_SHELL_LIMIT:
        warnings.warn(
            f"{top_weight:.1%} of the state sits in the top two Fock shells; "
            "R is truncation-contaminated, increase the cutoff",
            TruncationWarning,
            stacklevel=stacklevel,
        )


@dataclass(eq=False)
class LevelGroup:
    """One degenerate multiplet of computed levels.

    Characters and R are averaged over the group members (the subspace
    trace divided by the multiplicity), which makes them independent of the
    solver's arbitrary basis choice inside the multiplet. The label names
    the multiplet's vibronic type, not its electronic composition: in the
    strong-coupling regime every low state carries roughly half A2u and
    half Eu electronic weight, so electronic weights alone cannot separate
    the nondegenerate A2u-type level from the Eu-type doublet; the
    degeneracy does.
    """

    indices: list[int]
    energy: float
    character: np.ndarray
    label: str
    distortion_r: float

    @property
    def degeneracy(self) -> int:
        return len(self.indices)


def _group_label(character: np.ndarray, degeneracy: int) -> str:
    """Vibronic multiplet label from degeneracy plus electronic weights.

    A doubly degenerate group is the Eu-type vibronic doublet (the only
    doubly degenerate label available; a tunnel-split singlet pair closer
    than the degeneracy tolerance would be indistinguishable from one). A
    nondegenerate level must be A2u- or A1u-type; the electronic A2u vs
    A1u weights discriminate, with "mixed" when they tie. Larger
    accidental multiplets (decoupled-limit shells) fall back to whichever
    pooled electronic weight exceeds half.
    """
    w_a2u, w_a1u, w_eux, w_euy = character
    if degeneracy == 2:
        return "Eu"
    if degeneracy == 1:
        if abs(w_a2u - w_a1u) < 1e-3:
            return "mixed"
        return "A2u" if w_a2u > w_a1u else "A1u"
    if w_a2u > 0.5:
        return "A2u"
    if w_a1u > 0.5:
        return "A1u"
    if w_eux + w_euy > 0.5:
        return "Eu"
    return "mixed"


def _pool_levels(
    energies: np.ndarray,
    characters,
    r_squared,
    degeneracy_tol: float = DEGENERACY_TOL_MEV,
) -> list[LevelGroup]:
    """LevelGroups from per-level characters and R^2 (None: R is NaN)."""
    groups: list[list[int]] = []
    for i in range(energies.size):
        if groups and energies[i] - energies[groups[-1][-1]] < degeneracy_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    out: list[LevelGroup] = []
    for members in groups:
        character = np.mean([characters[i] for i in members], axis=0)
        if r_squared is not None:
            r_value = math.sqrt(np.mean([r_squared[i] for i in members]))
        else:
            r_value = math.nan
        out.append(
            LevelGroup(
                indices=list(members),
                energy=float(np.mean(energies[members])),
                character=character,
                label=_group_label(character, len(members)),
                distortion_r=r_value,
            )
        )
    return out


def delta_from_groups(groups: list[LevelGroup]) -> float:
    """Splitting between the A2u-type ground state and the Eu-type doublet.

    Args:
        groups: Output of level_groups, ascending.

    Returns:
        Energy of the lowest Eu-labeled multiplet (multiplicity >= 2) minus
        the ground energy, meV.

    Raises:
        StateOrderingError: the ground group is degenerate or not A2u-type,
            or no Eu doublet was found among the computed levels.
    """
    if not groups:
        raise StateOrderingError("no levels to classify")
    ground = groups[0]
    if ground.degeneracy != 1 or ground.label != "A2u":
        raise StateOrderingError(
            "lowest level is not a nondegenerate A2u-type state "
            f"(multiplicity {ground.degeneracy}, label {ground.label}); "
            "the parameter regime breaks the expected ordering"
        )
    for group in groups[1:]:
        if group.label == "Eu" and group.degeneracy >= 2:
            return group.energy - ground.energy
    raise StateOrderingError(
        "no Eu-type doublet among the computed levels; request more states"
    )


def level_groups(
    params: PjtParams,
    cutoff: int,
    num_states: int,
    *,
    tolerance: float = 1e-8,
    compute_r: bool = True,
) -> tuple[np.ndarray, list[LevelGroup]]:
    """Lowest levels from the J sectors, grouped into degenerate multiplets.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff.
        num_states: Levels to compute.
        tolerance: Residual bound, meV.
        compute_r: Also evaluate R per group; warns with TruncationWarning
            for each level with more than 1% weight in the top two shells.

    Returns:
        (energies, groups): the ascending level energies and their
        LevelGroups.
    """
    return _level_groups(params, cutoff, num_states, tolerance, compute_r)


def _level_groups(
    params: PjtParams, cutoff: int, num_states: int, tolerance: float, compute_r: bool
) -> tuple[np.ndarray, list[LevelGroup]]:
    """level_groups for the public functions that call it directly, so that
    a TruncationWarning names the line that called them."""
    levels = lowest_levels(params, cutoff, num_states, tolerance=tolerance)
    r_squared = None
    if compute_r:
        for top_weight in levels.top_shell_weight:
            _warn_if_truncated(top_weight, stacklevel=4)
        r_squared = levels.r_squared
    groups = _pool_levels(levels.energies, levels.character, r_squared)
    return levels.energies, groups


def delta_splitting(
    params: PjtParams,
    cutoff: int,
    *,
    num_states: int = 8,
    tolerance: float = 1e-8,
) -> float:
    """Gap between the lowest vibronic level and the Eu-type doublet above it.

    Computes num_states levels at the given cutoff, classifies them, and
    measures the doublet's distance from the nondegenerate A2u-type ground
    state.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff (the default elsewhere is 15).
        num_states: Levels to compute, >= 3.
        tolerance: Residual bound, meV.

    Returns:
        delta in meV (positive in the expected regime).

    Raises:
        StateOrderingError: expected level pattern absent.
    """
    if num_states < 3:
        raise ValueError(f"num_states must be >= 3 to resolve the doublet, got {num_states}")
    _, groups = level_groups(
        params, cutoff, num_states, tolerance=tolerance, compute_r=False
    )
    return delta_from_groups(groups)


def apes_scan(params: PjtParams, x_values, y: float = 0.0) -> ApesPoint:
    """Classical adiabatic sheets along a line of X values at fixed Y.

    Args:
        params: Model parameters.
        x_values: Finite X coordinates, any array-like.
        y: Fixed Y coordinate.

    Returns:
        One ApesPoint whose arrays carry the shape of x_values as leading
        axes, in input order: energies[k] holds the sheets at x_values[k].
    """
    return classical_apes(params, np.asarray(x_values, dtype=float), y)


@dataclass(eq=False)
class VibronicState:
    """One computed level dressed with its observables.

    character holds the electronic weights (w_a2u, w_a1u, w_eux, w_euy)
    pooled over the state's degenerate group; degeneracy is the captured
    group size. dominant_label names the multiplet's vibronic type (a
    doublet is Eu-type even though its electronic weights stay near the
    half-A2u, half-Eu mixture typical of the strong-coupling regime).
    """

    energy: float
    character: np.ndarray
    distortion_r: float
    dominant_label: str
    degeneracy: int


@dataclass(eq=False)
class SpectrumReport:
    """Low-lying vibronic spectrum with characters, R, and delta."""

    params: PjtParams
    cutoff: int
    states: list[VibronicState]
    delta: float


def spectrum_report(
    params: PjtParams,
    cutoff: int,
    num_states: int = 8,
    *,
    tolerance: float = 1e-8,
) -> SpectrumReport:
    """Solve, classify, and package the low-lying spectrum.

    States within one degenerate group share pooled characters, label, and
    R. If the last requested state cuts an accidental multiplet of several
    J sectors, the pooled values of that final group cover only its
    captured members; request enough states to cover full multiplets when
    that matters.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff.
        num_states: Levels to report, >= 3.
        tolerance: Residual bound, meV.

    Returns:
        SpectrumReport with states ascending and delta > 0 in the expected
        regime.

    Raises:
        StateOrderingError: the level pattern needed to define delta is
            absent.
    """
    if num_states < 3:
        raise ValueError(f"num_states must be >= 3, got {num_states}")
    energies, groups = _level_groups(params, cutoff, num_states, tolerance, True)
    delta = delta_from_groups(groups)
    states: list[VibronicState] = []
    for group in groups:
        for i in group.indices:
            states.append(
                VibronicState(
                    energy=float(energies[i]),
                    character=group.character,
                    distortion_r=group.distortion_r,
                    dominant_label=group.label,
                    degeneracy=group.degeneracy,
                )
            )
    return SpectrumReport(params=params, cutoff=int(cutoff), states=states, delta=delta)
