"""Full product-space reference for the conserved-J sectors.

The package diagonalizes the vibronic matrix sector by sector. This module
builds the same truncated model the direct way, as one scipy.sparse matrix
over electronic x Fock space, solves it with one dense LAPACK call and
classifies the eigenvectors; the tests compare the sectors against it.
``every_sector_levels`` is the sector route without its pruning: one eigh of
all sectors J = 0 .. N + 1 and a loop over them.

The vibrational configuration space is spanned by number states |n, m> of the
two components of a doubly degenerate mode, kept up to a total-quanta cutoff
n + m <= N. States are ordered by ascending shell s = n + m, ties by ascending
m, so states of equal unperturbed energy sit next to each other. The full
matrix is

    H = hbar_omega * (I4 kron N) + B_X kron X + B_Y kron Y + W kron I_ph

with the electronic index varying slowest: entry (e * D_ph + p) of a vector is
the amplitude on determinant e, phonon state p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse

from pjtdiag.analysis import (
    DEGENERACY_TOL_MEV,
    LevelGroup,
    _pool_levels,
    _warn_if_truncated,
)
from pjtdiag.hamiltonian import (
    SYMMETRY_TRANSFORM,
    PjtParams,
    pjt_coupling_block,
    w_matrix,
)
from pjtdiag.sectors import (
    MAX_DENSE_BYTES,
    ConvergenceError,
    SectorLevels,
    _layout,
    sector_matrices,
)

# Largest matrix dimension representable by 32-bit sparse indices.
_MAX_DIMENSION = 2**31 - 1

_NORMALIZATION_TOL = 1e-8


@dataclass(frozen=True)
class FockBasis:
    """Immutable two-mode number basis truncated at n + m <= cutoff.

    Attributes:
        cutoff: Maximum total number of quanta N.
        states: Ordered (n, m) pairs, ascending n + m, ties by ascending m.
        index: Inverse map (n, m) -> position in ``states``.
    """

    cutoff: int
    states: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int] = field(repr=False)

    @property
    def size(self) -> int:
        """Number of basis states, (N + 1)(N + 2) / 2."""
        return len(self.states)


def build_basis(cutoff: int) -> FockBasis:
    """Enumerate the truncated two-mode basis in canonical order.

    Args:
        cutoff: Maximum total quanta N, >= 0. Cutoff 0 is valid and yields
            the single vacuum state (0, 0).

    Returns:
        FockBasis with exactly (N + 1)(N + 2) / 2 states.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    states: list[tuple[int, int]] = []
    for shell in range(cutoff + 1):
        for m in range(shell + 1):
            states.append((shell - m, m))
    index = {nm: k for k, nm in enumerate(states)}
    return FockBasis(cutoff=int(cutoff), states=tuple(states), index=index)


def position_operator(basis: FockBasis, mode: str) -> sparse.csr_matrix:
    """Dimensionless position matrix (a_dag + a) / sqrt(2) for one component.

    Matrix elements follow the ladder algebra: <n+1, m|X|n, m> = sqrt((n+1)/2)
    and <n-1, m|X|n, m> = sqrt(n/2) at fixed m, with the roles of n and m
    swapped for mode Y. Elements that would raise a state past the cutoff are
    dropped (projector truncation), which keeps the matrix symmetric.

    Args:
        basis: Truncated basis from build_basis.
        mode: "X" or "Y" (case-insensitive).

    Returns:
        Real symmetric CSR matrix with zero diagonal.
    """
    which = str(mode).upper()
    if which not in ("X", "Y"):
        raise ValueError(f"mode must be 'X' or 'Y', got {mode!r}")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for k, (n, m) in enumerate(basis.states):
        raised = (n + 1, m) if which == "X" else (n, m + 1)
        if raised[0] + raised[1] > basis.cutoff:
            continue
        j = basis.index[raised]
        amp = math.sqrt((raised[0] if which == "X" else raised[1]) / 2.0)
        rows.extend((j, k))
        cols.extend((k, j))
        vals.extend((amp, amp))
    op = sparse.csr_matrix((vals, (rows, cols)), shape=(basis.size, basis.size))
    op.sort_indices()
    return op


def number_operator(basis: FockBasis) -> sparse.csr_matrix:
    """Diagonal matrix n + m + 1 (total quanta plus both zero points).

    Multiplying by the vibrational quantum gives the harmonic part of the
    Hamiltonian: H_osc = hbar_omega * number_operator(basis).
    """
    diag = np.array([n + m + 1.0 for (n, m) in basis.states])
    return sparse.diags(diag, 0, format="csr")


@dataclass(frozen=True, eq=False)
class VibronicHamiltonian:
    """Assembled sparse vibronic matrix over electronic x Fock space.

    Attributes:
        params: Parameters the matrix was built from.
        basis: Phonon basis; the matrix dimension is 4 * basis.size.
        matrix: Real symmetric CSR matrix, electronic index slowest.
    """

    params: PjtParams
    basis: FockBasis
    matrix: sparse.csr_matrix = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def assemble(params: PjtParams, basis: FockBasis) -> VibronicHamiltonian:
    """Build the sparse vibronic matrix over the product space.

    The Kronecker ordering puts the electronic index on the slow axis, so
    rows [e * D_ph, (e + 1) * D_ph) belong to determinant e.

    Args:
        params: Model parameters.
        basis: Truncated phonon basis.

    Returns:
        VibronicHamiltonian of dimension 4 * basis.size.

    Raises:
        ValueError: if the dimension would overflow 32-bit sparse indices.
    """
    dim = 4 * basis.size
    if dim > _MAX_DIMENSION:
        raise ValueError(
            f"cutoff {basis.cutoff} gives dimension {dim}, beyond 32-bit indexing"
        )
    x_op = position_operator(basis, "X")
    y_op = position_operator(basis, "Y")
    n_op = number_operator(basis)
    identity4 = sparse.identity(4, format="csr")
    identity_ph = sparse.identity(basis.size, format="csr")
    matrix = (
        params.hbar_omega * sparse.kron(identity4, n_op)
        + sparse.kron(sparse.csr_matrix(pjt_coupling_block(params, "X")), x_op)
        + sparse.kron(sparse.csr_matrix(pjt_coupling_block(params, "Y")), y_op)
        + sparse.kron(sparse.csr_matrix(w_matrix(params)), identity_ph)
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return VibronicHamiltonian(params=params, basis=basis, matrix=matrix)


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


def solve(
    h: VibronicHamiltonian, num_states: int, *, tolerance: float = 1e-8
) -> EigenResult:
    """Compute the lowest num_states eigenpairs of h with one dense eigh.

    Args:
        h: Assembled vibronic Hamiltonian.
        num_states: Number k of lowest eigenpairs wanted, 1 .. dimension.
        tolerance: Residual bound ||H v - E v|| in meV for every pair.

    Returns:
        EigenResult with ascending energies and orthonormal vectors.

    Raises:
        ValueError: num_states below 1 or above the matrix dimension, a
            tolerance that is not > 0, or a dense copy of the matrix larger
            than MAX_DENSE_BYTES (checked before it is allocated).
        ConvergenceError: when a residual exceeds the tolerance; the
            exception carries the energies and residuals.
    """
    matrix = h.matrix
    dimension = matrix.shape[0]
    k = num_states
    if k < 1:
        raise ValueError(f"num_states must be >= 1, got {k}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
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
    if np.any(residuals > tolerance):
        raise ConvergenceError(
            f"dense solve residuals up to {residuals.max():.3e} meV exceed "
            f"tolerance {tolerance:.3e}",
            energies=energies,
            residuals=residuals,
        )
    return EigenResult(energies=energies, vectors=vectors, residuals=residuals)


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


def every_sector_levels(params: PjtParams, cutoff: int, num_states: int) -> SectorLevels:
    """Lowest num_states levels from an eigh of every sector, one sector at a time.

    Ties between levels resolve as in pjtdiag.sectors.lowest_levels: sector
    by sector, then the mirrors -J of the sectors J > 0.
    """
    js, dims, stack = sector_matrices(params, cutoff)
    layout = _layout(cutoff, js)
    values, vectors = np.linalg.eigh(stack)
    sec, col = np.nonzero(np.arange(stack.shape[1]) < dims[:, None])
    mirrored = js[sec] > 0
    sec = np.concatenate([sec, sec[mirrored]])
    col = np.concatenate([col, col[mirrored]])
    order = np.argsort(values[sec, col], kind="stable")[:num_states]
    sec, col = sec[order], col[order]
    energies = values[sec, col]

    residuals, top, r_squared = (np.empty(num_states) for _ in range(3))
    by_component = np.empty((num_states, 4))
    for k in np.unique(sec):
        rows = sec == k
        part = vectors[k][:, col[rows]].T
        weight = part * part
        component = layout.component[k]
        residuals[rows] = np.linalg.norm(
            part @ stack[k] - part * energies[rows, None], axis=1
        )
        by_component[rows] = weight @ (component[:, None] == np.arange(4))
        top[rows] = weight @ ((layout.shell[k] >= cutoff - 1) & (component >= 0))
        r_squared[rows] = weight @ layout.moment_diag[k] + 2.0 * (
            (part[:, :-1] * part[:, 1:]) @ layout.moment_off[k, :-1]
        )
    doublet = 0.5 * (by_component[:, 2] + by_component[:, 3])
    return SectorLevels(
        energies=energies,
        character=np.column_stack(
            [by_component[:, 0], by_component[:, 1], doublet, doublet]
        ),
        r_squared=r_squared,
        top_shell_weight=top,
        residuals=residuals,
    )
