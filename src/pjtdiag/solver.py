"""Lowest eigenpairs of the assembled product-space matrix.

``solve`` diagonalizes the full sparse matrix with one dense LAPACK call. It
is the small-cutoff reference that the conserved-J sectors are tested
against, and it refuses matrices beyond MAX_DENSE_BYTES (cutoff 53 and up).
It imports scipy.linalg on its first call.
``converge_cutoff`` repeats the J-sector solve over a ladder of Fock cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import PjtParams, VibronicHamiltonian
from .sectors import MAX_DENSE_BYTES, ConvergenceError, lowest_levels

__all__ = [
    "MAX_DENSE_BYTES",
    "ConvergenceError",
    "ConvergenceStudy",
    "CutoffResult",
    "EigenResult",
    "SolveRequest",
    "converge_cutoff",
    "solve",
]


@dataclass(frozen=True)
class SolveRequest:
    """What to compute.

    Attributes:
        num_states: Number k of lowest eigenpairs wanted.
        tolerance: Residual bound ||H v - E v|| in meV for every pair.

    Raises:
        ValueError: num_states below 1, or a tolerance that is not > 0.
    """

    num_states: int
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError(f"num_states must be >= 1, got {self.num_states}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(eq=False)
class EigenResult:
    """Lowest eigenpairs of one matrix.

    Attributes:
        energies: Ascending array of k energies, meV.
        vectors: (dimension, k) array, orthonormal columns matching energies.
        residuals: ||H v - E v|| per pair, meV.
    """

    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray


def solve(h: VibronicHamiltonian, req: SolveRequest) -> EigenResult:
    """Compute the lowest req.num_states eigenpairs of h.

    Args:
        h: Assembled vibronic Hamiltonian.
        req: Solve request; see SolveRequest.

    Returns:
        EigenResult with ascending energies and orthonormal vectors.

    Raises:
        ValueError: more states than the matrix dimension, or a dense copy
            of the matrix larger than MAX_DENSE_BYTES (checked before it is
            allocated).
        ConvergenceError: when a residual exceeds the tolerance; the
            exception carries the energies and residuals.
    """
    import scipy.linalg

    matrix = h.matrix
    dimension = matrix.shape[0]
    k = req.num_states
    if k > dimension:
        raise ValueError(f"num_states {k} exceeds matrix dimension {dimension}")
    needed = dimension * dimension * 8
    if needed > MAX_DENSE_BYTES:
        raise ValueError(
            f"dense solve at dimension {dimension} needs {needed / 2**20:.0f} MiB, "
            f"beyond the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )
    energies, vectors = scipy.linalg.eigh(
        matrix.toarray(), subset_by_index=(0, k - 1)
    )
    residuals = np.linalg.norm(matrix @ vectors - vectors * energies, axis=0)
    if np.any(residuals > req.tolerance):
        raise ConvergenceError(
            f"dense solve residuals up to {residuals.max():.3e} meV exceed "
            f"tolerance {req.tolerance:.3e}",
            energies=energies,
            residuals=residuals,
        )
    return EigenResult(energies=energies, vectors=vectors, residuals=residuals)


@dataclass(eq=False)
class CutoffResult:
    """Solve outcome at one Fock cutoff.

    ``energies`` is None when the solve failed; ``error`` holds the failure
    message then.
    """

    cutoff: int
    energies: np.ndarray | None
    error: str | None = None


@dataclass(eq=False)
class ConvergenceStudy:
    """Per-cutoff energies from converge_cutoff."""

    rows: list[CutoffResult]
    ground_tolerance: float

    @property
    def converged(self) -> bool:
        """True when the last two successful ground energies agree within
        ground_tolerance."""
        good = [row for row in self.rows if row.error is None]
        if len(good) < 2:
            return False
        return abs(good[-1].energies[0] - good[-2].energies[0]) < self.ground_tolerance


def converge_cutoff(
    params: PjtParams,
    req: SolveRequest,
    cutoffs,
    *,
    ground_tolerance: float = 1e-3,
    on_error: str = "raise",
) -> ConvergenceStudy:
    """Solve at a ladder of Fock cutoffs to monitor basis-set convergence.

    Each cutoff is solved in the conserved-J sectors (``sectors.lowest_levels``).
    The ground energy is variational, so it must be non-increasing along an
    ascending ladder; the convergence flag compares the last two successful
    rows against ground_tolerance.

    Args:
        params: Model parameters.
        req: Solve request applied at every cutoff.
        cutoffs: Strictly ascending integers, at least two.
        ground_tolerance: Ground-energy agreement defining "converged", meV.
        on_error: "raise" propagates the first per-cutoff failure;
            "continue" records it in the row and moves on.

    Returns:
        ConvergenceStudy with one row per cutoff.
    """
    ladder = [int(c) for c in cutoffs]
    if len(ladder) < 2:
        raise ValueError(f"need at least two cutoffs, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"cutoffs must be strictly ascending, got {ladder}")
    if on_error not in ("raise", "continue"):
        raise ValueError(f"on_error must be 'raise' or 'continue', got {on_error!r}")
    if not ground_tolerance > 0:
        raise ValueError(f"ground_tolerance must be > 0, got {ground_tolerance}")

    rows: list[CutoffResult] = []
    for cutoff in ladder:
        try:
            levels = lowest_levels(
                params, cutoff, req.num_states, tolerance=req.tolerance
            )
        except (ValueError, ConvergenceError) as exc:
            if on_error == "raise":
                raise
            rows.append(CutoffResult(cutoff=cutoff, energies=None, error=str(exc)))
            continue
        rows.append(CutoffResult(cutoff=cutoff, energies=levels.energies))
    return ConvergenceStudy(rows=rows, ground_tolerance=ground_tolerance)
