"""Physical observables from vibronic eigenpairs.

Electronic character decomposition over the symmetry labels, the distortion
expectation R, classification of levels into degenerate groups, the splitting
delta between the lowest A2u-type state and the Eu-type doublet, and classical
sheet scans along a line of X (each point is a hamiltonian.ApesPoint, which
carries its per-sheet characters).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, position_operator
from .hamiltonian import SYMMETRY_TRANSFORM, ApesPoint, PjtParams, classical_apes
from .sectors import lowest_levels

__all__ = [
    "DEGENERACY_TOL_MEV",
    "LevelGroup",
    "SpectrumReport",
    "StateOrderingError",
    "TruncationWarning",
    "VibronicState",
    "apes_scan",
    "classify_levels",
    "delta_from_groups",
    "delta_splitting",
    "distortion_expectation",
    "electronic_character",
    "level_groups",
    "spectrum_report",
]

# Energies closer than this are treated as one degenerate multiplet.
DEGENERACY_TOL_MEV = 1e-6

_NORMALIZATION_TOL = 1e-8

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


def _reshape_blocks(state_vector, basis: FockBasis) -> np.ndarray:
    vector = np.asarray(state_vector, dtype=float)
    expected = 4 * basis.size
    if vector.shape != (expected,):
        raise ValueError(
            f"state vector must have shape ({expected},), got {vector.shape}"
        )
    norm = np.linalg.norm(vector)
    if abs(norm - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"state vector must be normalized, got norm {norm}")
    return vector.reshape(4, basis.size)


def electronic_character(state_vector, basis: FockBasis) -> np.ndarray:
    """Symmetry-resolved electronic weights of a vibronic state.

    Each phonon component's 4-vector of determinant amplitudes is rotated to
    the symmetry basis and the squared magnitudes are summed per label.

    Args:
        state_vector: Normalized coefficient vector of length 4 * basis.size,
            electronic index slowest.
        basis: Phonon basis the vector lives on.

    Returns:
        Array (w_a2u, w_a1u, w_eux, w_euy); sums to 1 for a normalized input.
    """
    blocks = _reshape_blocks(state_vector, basis)
    symmetry_amplitudes = SYMMETRY_TRANSFORM @ blocks
    return (symmetry_amplitudes**2).sum(axis=1)


def distortion_expectation(state_vector, basis: FockBasis) -> float:
    """RMS displacement R = sqrt(<X^2 + Y^2>) of a vibronic state.

    Evaluated with the truncated position matrices. The vibrational vacuum
    gives R = 1 (two zero-point halves). Warns when more than 1% of the
    probability sits in the top two Fock shells, where truncation biases
    the second moments.

    Args:
        state_vector: Normalized coefficient vector, electronic index slowest.
        basis: Phonon basis the vector lives on.

    Returns:
        Dimensionless R >= 0.
    """
    blocks = _reshape_blocks(state_vector, basis)
    shells = np.array([n + m for (n, m) in basis.states])
    _warn_if_truncated((blocks[:, shells >= basis.cutoff - 1] ** 2).sum(), stacklevel=3)
    x_op = position_operator(basis, "X")
    y_op = position_operator(basis, "Y")
    second_moment = 0.0
    for component in blocks:
        second_moment += np.linalg.norm(x_op @ component) ** 2
        second_moment += np.linalg.norm(y_op @ component) ** 2
    return math.sqrt(second_moment)


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


def classify_levels(
    energies,
    vectors,
    basis: FockBasis,
    *,
    degeneracy_tol: float = DEGENERACY_TOL_MEV,
    compute_r: bool = True,
) -> list[LevelGroup]:
    """Group levels into degenerate multiplets with pooled characters.

    Consecutive energies closer than degeneracy_tol are merged into one
    group. If the last computed level is itself part of a larger multiplet
    that the solve truncated, the pooled values cover only the captured
    members.

    Args:
        energies: Ascending energies, meV.
        vectors: Matching eigenvector columns.
        basis: Phonon basis.
        degeneracy_tol: Gap below which neighbors are one multiplet, meV.
        compute_r: Also evaluate R per group (skipping it avoids truncation
            warnings when only energies and labels are needed).

    Returns:
        LevelGroups in ascending energy order.
    """
    energies = np.asarray(energies, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    characters = [electronic_character(vectors[:, i], basis) for i in range(energies.size)]
    r_squared = None
    if compute_r:
        r_squared = [
            distortion_expectation(vectors[:, i], basis) ** 2
            for i in range(energies.size)
        ]
    return _pool_levels(energies, characters, r_squared, degeneracy_tol)


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
        groups: Output of classify_levels, ascending.

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
        LevelGroups, as classify_levels would give them.
    """
    levels = lowest_levels(params, cutoff, num_states, tolerance=tolerance)
    r_squared = None
    if compute_r:
        for top_weight in levels.top_shell_weight:
            _warn_if_truncated(top_weight, stacklevel=3)
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


def apes_scan(params: PjtParams, x_values, y: float = 0.0) -> list[ApesPoint]:
    """Classical adiabatic sheets along a line of X values at fixed Y.

    Args:
        params: Model parameters.
        x_values: Iterable of finite X coordinates.
        y: Fixed Y coordinate.

    Returns:
        One ApesPoint per input X, in input order.
    """
    return [classical_apes(params, x, y) for x in x_values]


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
    energies, groups = level_groups(params, cutoff, num_states, tolerance=tolerance)
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
