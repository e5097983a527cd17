"""Low-lying eigenpairs of the assembled vibronic matrix.

Two routes: a dense LAPACK path for moderate dimensions and a block Lanczos
iteration with full reorthogonalization for larger ones. ``method="auto"``
switches between them at dimension 2000. A convergence helper repeats the
solve over a ladder of Fock cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fock import build_basis
from .hamiltonian import PjtParams, VibronicHamiltonian, assemble

__all__ = [
    "DENSE_CROSSOVER",
    "DEGENERACY_TOL_MEV",
    "MAX_DENSE_BYTES",
    "ConvergenceError",
    "ConvergenceStudy",
    "CutoffResult",
    "EigenResult",
    "SolveRequest",
    "converge_cutoff",
    "solve",
]

DENSE_CROSSOVER = 2000

# Largest dense array a route may allocate, in bytes. Refusing beyond it keeps
# a large cutoff from exhausting memory; the peak is a few times this.
MAX_DENSE_BYTES = 2**28

# Energies closer than this are treated as one degenerate multiplet.
DEGENERACY_TOL_MEV = 1e-6

_LANCZOS_SEED = 20260214

_METHODS = ("auto", "dense", "iterative")


@dataclass(frozen=True)
class SolveRequest:
    """What to compute and how hard to try.

    Attributes:
        num_states: Number k of lowest eigenpairs wanted.
        method: "dense", "iterative", or "auto" (dense up to dimension 2000).
        tolerance: Residual bound ||H v - E v|| in meV for every pair.
        max_iterations: Iteration cap for the iterative path.
    """

    num_states: int
    method: str = "auto"
    tolerance: float = 1e-8
    max_iterations: int = 500


@dataclass(eq=False)
class EigenResult:
    """Lowest eigenpairs of one matrix.

    Attributes:
        energies: Ascending array of k energies, meV.
        vectors: (dimension, k) array, orthonormal columns matching energies.
        residuals: ||H v - E v|| per pair, meV.
        iterations_used: Block iterations spent (0 on the dense path).
        method: Which path produced the result, "dense" or "iterative".
    """

    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray
    iterations_used: int
    method: str


class ConvergenceError(RuntimeError):
    """Solver could not push every residual below the requested tolerance.

    Carries the best energies and residuals reached so that callers can
    diagnose without rerunning.
    """

    def __init__(
        self,
        message: str,
        energies: np.ndarray | None = None,
        residuals: np.ndarray | None = None,
    ) -> None:
        super().__init__(message)
        self.energies = energies
        self.residuals = residuals


def _validate_request(req: SolveRequest, dimension: int) -> None:
    if req.method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {req.method!r}")
    if req.num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {req.num_states}")
    if req.num_states > dimension:
        raise ValueError(
            f"num_states {req.num_states} exceeds matrix dimension {dimension}"
        )
    if not req.tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {req.tolerance}")
    if req.max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {req.max_iterations}")


def solve(h: VibronicHamiltonian, req: SolveRequest) -> EigenResult:
    """Compute the lowest req.num_states eigenpairs of h.

    Args:
        h: Assembled vibronic Hamiltonian.
        req: Solve request; see SolveRequest.

    Returns:
        EigenResult with ascending energies and orthonormal vectors.

    Raises:
        ValueError: on an invalid request.
        ConvergenceError: when the residual tolerance cannot be met; the
            exception carries the best energies and residuals reached.
    """
    matrix = h.matrix
    dimension = matrix.shape[0]
    _validate_request(req, dimension)
    method = req.method
    if method == "auto":
        method = "dense" if dimension <= DENSE_CROSSOVER else "iterative"
    if method == "dense":
        return _solve_dense(matrix, req)
    return _solve_lanczos(matrix, req)


def _solve_dense(matrix, req: SolveRequest) -> EigenResult:
    dimension = matrix.shape[0]
    needed = dimension * dimension * 8
    if needed > MAX_DENSE_BYTES:
        raise ValueError(
            f"dense path at dimension {dimension} needs {needed / 2**20:.0f} MiB, "
            f"beyond the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )
    k = req.num_states
    energies, vectors = scipy.linalg.eigh(
        matrix.toarray(), subset_by_index=(0, k - 1)
    )
    residuals = np.linalg.norm(matrix @ vectors - vectors * energies, axis=0)
    if np.any(residuals > req.tolerance):
        raise ConvergenceError(
            f"dense path residuals up to {residuals.max():.3e} meV exceed "
            f"tolerance {req.tolerance:.3e}",
            energies=energies,
            residuals=residuals,
        )
    return EigenResult(
        energies=energies,
        vectors=vectors,
        residuals=residuals,
        iterations_used=0,
        method="dense",
    )


def _orthonormalize(block: np.ndarray, against: np.ndarray | None) -> np.ndarray:
    """Orthonormal columns spanning block minus the space of ``against``.

    Modified Gram-Schmidt with a second pass; columns that lose more than
    eight orders of magnitude of their norm are dropped as linearly
    dependent.
    """
    kept: list[np.ndarray] = []
    for j in range(block.shape[1]):
        v = block[:, j].astype(float, copy=True)
        scale = np.linalg.norm(v)
        if scale == 0.0:
            continue
        for _ in range(2):
            if against is not None and against.shape[1] > 0:
                v -= against @ (against.T @ v)
            for u in kept:
                v -= u * (u @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8 * scale:
            kept.append(v / norm)
    if not kept:
        return np.empty((block.shape[0], 0))
    return np.column_stack(kept)


def _solve_lanczos(matrix, req: SolveRequest) -> EigenResult:
    """Block Lanczos with full reorthogonalization.

    Grows a block Krylov space, keeping every basis vector and its image so
    that Ritz residuals come for free, and reorthogonalizes each new block
    against the whole accumulated basis (twice) to suppress ghost copies of
    converged eigenvalues. The extra block columns beyond num_states let
    degenerate multiplets converge together. The starting block is drawn
    from a fixed-seed generator, so repeated solves are reproducible.
    """
    dimension = matrix.shape[0]
    k = req.num_states
    block_size = min(dimension, k + 2)
    rng = np.random.default_rng(_LANCZOS_SEED)
    current = _orthonormalize(rng.standard_normal((dimension, block_size)), None)

    basis_blocks: list[np.ndarray] = []
    image_blocks: list[np.ndarray] = []
    best_energies: np.ndarray | None = None
    best_residuals: np.ndarray | None = None

    for iteration in range(1, req.max_iterations + 1):
        image = matrix @ current
        basis_blocks.append(current)
        image_blocks.append(image)
        subspace = np.hstack(basis_blocks)
        images = np.hstack(image_blocks)

        projected = subspace.T @ images
        projected = 0.5 * (projected + projected.T)
        theta, s = np.linalg.eigh(projected)
        ritz = subspace @ s[:, :k]
        ritz_images = images @ s[:, :k]
        residual_vectors = ritz_images - ritz * theta[:k]
        residuals = np.linalg.norm(residual_vectors, axis=0)
        best_energies = theta[:k].copy()
        best_residuals = residuals

        if residuals.max() <= req.tolerance:
            return EigenResult(
                energies=theta[:k].copy(),
                vectors=ritz,
                residuals=residuals,
                iterations_used=iteration,
                method="iterative",
            )

        if subspace.shape[1] >= dimension:
            # The Krylov space is the whole space; nothing left to add.
            break

        current = _orthonormalize(image, subspace)
        if current.shape[1] == 0:
            # Hit an invariant subspace before convergence; continue with
            # fresh directions from the same deterministic stream.
            fresh = rng.standard_normal((dimension, block_size))
            current = _orthonormalize(fresh, subspace)
            if current.shape[1] == 0:
                break

    raise ConvergenceError(
        f"residuals up to {best_residuals.max():.3e} meV after "
        f"{len(basis_blocks)} block iterations, tolerance {req.tolerance:.3e}",
        energies=best_energies,
        residuals=best_residuals,
    )


@dataclass(eq=False)
class CutoffResult:
    """Solve outcome at one Fock cutoff.

    ``energies`` and ``vectors`` are None when the solve failed; ``error``
    holds the failure message then. Vectors are retained only on request.
    """

    cutoff: int
    energies: np.ndarray | None
    vectors: np.ndarray | None = field(repr=False, default=None)
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
    keep_vectors: bool = False,
    on_error: str = "raise",
) -> ConvergenceStudy:
    """Solve at a ladder of Fock cutoffs to monitor basis-set convergence.

    The ground energy is variational, so it must be non-increasing along an
    ascending ladder; the convergence flag compares the last two successful
    rows against ground_tolerance.

    Args:
        params: Model parameters.
        req: Solve request applied at every cutoff.
        cutoffs: Strictly ascending integers, at least two.
        ground_tolerance: Ground-energy agreement defining "converged", meV.
        keep_vectors: Retain eigenvectors per cutoff (memory permitting).
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
            h = assemble(params, build_basis(cutoff))
            result = solve(h, req)
        except (ValueError, ConvergenceError) as exc:
            if on_error == "raise":
                raise
            rows.append(CutoffResult(cutoff=cutoff, energies=None, error=str(exc)))
            continue
        rows.append(
            CutoffResult(
                cutoff=cutoff,
                energies=result.energies,
                vectors=result.vectors if keep_vectors else None,
            )
        )
    return ConvergenceStudy(rows=rows, ground_tolerance=ground_tolerance)
