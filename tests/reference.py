"""Full product-space reference for the conserved-J sectors.

The package diagonalizes the vibronic matrix sector by sector. This module
builds the same truncated model the direct way, as one dense matrix over
electronic x Fock space (a sum of np.kron products), solves it with
np.linalg.eigh and classifies the eigenvectors by the symmetry operators,
also dense, built here on the same Fock space: the generator of
J = L_z + S, a geometric C3 turn and the reflection Y -> -Y. The tests
compare the sectors against it; every product-space call they make is at a
cutoff of 15 or less (dimension 544 or less). It also holds the 4x4
electronic blocks of the product-space matrix, ``fill``, the generic fill
of a sector layout that the package's fill, from the diagonal and
block-sorted couplings of its cached layout, must match bit for bit, and
``sector_matrices``, which builds whole sectors of any J with it, and
``sector_floor``, a closed-form lower bound on the levels of each sector.
``every_sector_levels`` is the sector route without its pruning: one eigh of
both halves of sector 0 and of all sectors J = 1 .. N + 1, and a loop over
them. ``exe_levels`` solves the linear E x e problem in its own sectors of
half-integer j, built here without the package's layout; with f_g = Lambda
= Xi = 0 every level of the model is one of its levels, fourfold, so it is a
reference at cutoffs of several hundred.

The vibrational configuration space is spanned by number states |n, m> of the
two components of a doubly degenerate mode, kept up to a total-quanta cutoff
n + m <= N. States are ordered by ascending shell s = n + m, ties by ascending
m, so states of equal unperturbed energy sit next to each other. The full
matrix is

    H = hbar_omega * (I4 kron N) + B_X kron X + B_Y kron Y + W kron I_ph

with the electronic index varying slowest: entry (e * D_ph + p) of a vector is
the amplitude on determinant e, phonon state p.

This module owns that determinant basis: DETERMINANTS names its four
two-hole states, and the orthogonal SYMMETRY_TRANSFORM maps their
amplitudes to those of SYMMETRY_LABELS, the symmetry states A2u, A1u, Eux
and Euy in which W is diagonal. The package works from the symmetry states
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pjtdiag.hamiltonian import PjtParams
from pjtdiag.sectors import (
    SectorLevels,
    _Layout,
    _layout,
    check_bytes,
    check_cutoff,
)

_NORMALIZATION_TOL = 1e-8

# The electronic index runs over these determinants, and the rows of
# SYMMETRY_TRANSFORM over SYMMETRY_LABELS.
DETERMINANTS: tuple[str, str, str, str] = (
    "e_uy e_gy",
    "e_ux e_gy",
    "e_uy e_gx",
    "e_ux e_gx",
)

SYMMETRY_LABELS: tuple[str, str, str, str] = ("A2u", "A1u", "Eux", "Euy")

# Maps determinant amplitudes to symmetry amplitudes: rows 0 .. 3 expand
# A2u, A1u, Eux and Euy over DETERMINANTS, so applied to a determinant-basis
# vector it gives the A2u, A1u, Eux and Euy amplitudes. Orthogonal; its rows
# diagonalize w_matrix.
_S = 1.0 / math.sqrt(2.0)
SYMMETRY_TRANSFORM = np.array(
    [
        [_S, 0.0, 0.0, _S],  # A2u = (|e_ux e_gx> + |e_uy e_gy>) / sqrt(2)
        [0.0, _S, -_S, 0.0],  # A1u = (|e_ux e_gy> - |e_uy e_gx>) / sqrt(2)
        [-_S, 0.0, 0.0, _S],  # Eux = (|e_ux e_gx> - |e_uy e_gy>) / sqrt(2)
        [0.0, _S, _S, 0.0],  # Euy = (|e_ux e_gy> + |e_uy e_gx>) / sqrt(2)
    ]
)
SYMMETRY_TRANSFORM.setflags(write=False)


@np.errstate(over="ignore")
def fill(params: PjtParams, layout: _Layout) -> np.ndarray:
    """Stack of the blocks of a sector layout, each padded to 2N + 2; the
    padding diagonal is the Gershgorin ceiling, above every level.

    The package fills only the blocks lowest_levels needs, a round at a
    time, from the padded diagonal and the block-sorted couplings that its
    _elements builds from the cutoff's cached layout; this is the generic
    fill, over every block at once, that it must match bit for bit. An
    element or row sum beyond the float range makes the padding inf,
    without a warning.
    """
    blocks, size = layout.component.shape
    f_sum, f_diff = params.f_u + params.f_g, params.f_u - params.f_g
    # 1/2 <target|B-|source> of the _COUPLED pairs.
    elements = np.array([-f_sum, f_diff, -f_sum, -f_diff]) / math.sqrt(2.0)
    w_diag = np.array(
        [-params.lambda_corr, params.lambda_corr, -params.xi_corr, -params.xi_corr]
    )
    stack = np.zeros((blocks, size, size))
    sec, row, col, pair, amp = layout.coupling
    values = elements[pair] * amp
    stack[sec, row, col] = values
    stack[sec, col, row] = values
    real = layout.component >= 0
    diagonal = np.where(
        real,
        params.hbar_omega * layout.quanta + w_diag[layout.component],
        0.0,
    )
    # Gershgorin: every eigenvalue is at most the largest absolute row sum.
    # That sum is positive (hbar_omega > 0), so twice it lies strictly above
    # every level and scales with H.
    row_sums = np.abs(diagonal)
    magnitudes = np.abs(values)
    np.add.at(row_sums, (sec, row), magnitudes)
    np.add.at(row_sums, (sec, col), magnitudes)
    ceiling = 2.0 * row_sums.max()
    index = np.arange(size)
    stack[:, index, index] = np.where(real, diagonal, ceiling)
    return stack


def w_matrix(params: PjtParams) -> np.ndarray:
    """Static electronic correlation term in the determinant basis.

    Diagonal in the symmetry basis with eigenvalues +Lambda (A1u), -Lambda
    (A2u) and -Xi (each Eu component); expressed here over the determinants.

    Returns:
        4x4 symmetric array in meV.
    """
    lam = params.lambda_corr
    xi = params.xi_corr
    lam_block = np.array(
        [
            [-1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, -1.0],
        ]
    )
    xi_block = np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    return 0.5 * lam * lam_block - 0.5 * xi * xi_block


def pjt_coupling_block(params: PjtParams, which: str) -> np.ndarray:
    """Electronic 4x4 block multiplying the X or Y position operator.

    The X block is diagonal, carrying the sum channel f_u + f_g on the outer
    determinants and the difference channel f_u - f_g on the inner ones. The
    Y block is purely off-diagonal: f_u flips the ungerade component, f_g the
    gerade one.

    Args:
        params: Model parameters.
        which: "X" or "Y" (case-insensitive).

    Returns:
        4x4 symmetric array in meV.
    """
    label = str(which).upper()
    if label not in ("X", "Y"):
        raise ValueError(f"which must be 'X' or 'Y', got {which!r}")
    f_g, f_u = params.f_g, params.f_u
    if label == "X":
        return np.diag([f_u + f_g, -(f_u - f_g), f_u - f_g, -(f_u + f_g)])
    block = np.zeros((4, 4))
    block[0, 1] = block[1, 0] = f_u
    block[2, 3] = block[3, 2] = f_u
    block[0, 2] = block[2, 0] = f_g
    block[1, 3] = block[3, 1] = f_g
    return block


def sector_matrices(
    params: PjtParams, cutoff: int, j_values=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real symmetric matrices of the requested J sectors.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff N.
        j_values: Integer J of each sector; default 0 .. N + 1.

    Returns:
        (j_values, dims, stack): sector k occupies stack[k, :dims[k],
        :dims[k]]; the rest of each matrix is a diagonal padding above all
        of its eigenvalues.
    """
    check_cutoff(cutoff, 1)
    js = np.arange(cutoff + 2) if j_values is None else np.asarray(j_values, dtype=int)
    layout = _layout(cutoff, js, np.zeros(len(js), dtype=int))
    return layout.j_values, layout.dims, fill(params, layout)


def sector_floor(params: PjtParams, j_values) -> np.ndarray:
    """Closed-form lower bound L_J on every level of each sector J, at every
    cutoff.

    Split hbar_omega (n+ + n- + 1) into (1 - t) of itself, at least (1 - t)
    a_J on sector J with a_J = hbar_omega (max(|J| - 1, 0) + 1), and t
    hbar_omega (X^2 + P_X^2 + Y^2 + P_Y^2) / 2. Without P^2, the second
    part plus W + B_X X + B_Y Y is at least w - c / t, with w = min(-Lambda,
    -Xi) the lowest W and c = (f_u + f_g)^2 / (2 hbar_omega). The best t in
    (0, 1] gives a_J - 2 sqrt(a_J c) + w when c < a_J, else w - c. A
    truncated sector is a compression of the untruncated one, so the bound
    holds at every cutoff.
    """
    a = params.hbar_omega * (np.maximum(np.abs(np.asarray(j_values)) - 1, 0) + 1.0)
    c = (params.f_u + params.f_g) ** 2 / (2.0 * params.hbar_omega)
    w = min(-params.lambda_corr, -params.xi_corr)
    return np.where(c < a, a - 2.0 * np.sqrt(a * c) + w, w - c)


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


def position_operator(basis: FockBasis, mode: str) -> np.ndarray:
    """Dimensionless position matrix (a_dag + a) / sqrt(2) for one component.

    Matrix elements follow the ladder algebra: <n+1, m|X|n, m> = sqrt((n+1)/2)
    and <n-1, m|X|n, m> = sqrt(n/2) at fixed m, with the roles of n and m
    swapped for mode Y. Elements that would raise a state past the cutoff are
    dropped (projector truncation), which keeps the matrix symmetric.

    Args:
        basis: Truncated basis from build_basis.
        mode: "X" or "Y" (case-insensitive).

    Returns:
        Real symmetric array with zero diagonal.
    """
    which = str(mode).upper()
    if which not in ("X", "Y"):
        raise ValueError(f"mode must be 'X' or 'Y', got {mode!r}")
    op = np.zeros((basis.size, basis.size))
    for k, (n, m) in enumerate(basis.states):
        raised = (n + 1, m) if which == "X" else (n, m + 1)
        if raised[0] + raised[1] > basis.cutoff:
            continue
        j = basis.index[raised]
        op[j, k] = op[k, j] = math.sqrt((raised[0] if which == "X" else raised[1]) / 2.0)
    return op


def number_operator(basis: FockBasis) -> np.ndarray:
    """Diagonal matrix n + m + 1 (total quanta plus both zero points).

    Multiplying by the vibrational quantum gives the harmonic part of the
    Hamiltonian: H_osc = hbar_omega * number_operator(basis).
    """
    return np.diag([n + m + 1.0 for (n, m) in basis.states])


@dataclass(frozen=True, eq=False)
class VibronicHamiltonian:
    """Assembled dense vibronic matrix over electronic x Fock space.

    Attributes:
        params: Parameters the matrix was built from.
        basis: Phonon basis; the matrix dimension is 4 * basis.size.
        matrix: Real symmetric array, electronic index slowest.
    """

    params: PjtParams
    basis: FockBasis
    matrix: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def assemble(params: PjtParams, basis: FockBasis) -> VibronicHamiltonian:
    """Build the dense vibronic matrix over the product space.

    The Kronecker ordering puts the electronic index on the slow axis, so
    rows [e * D_ph, (e + 1) * D_ph) belong to determinant e. No entry gets
    more than two nonzero terms, so the sum is exactly symmetric.

    Args:
        params: Model parameters.
        basis: Truncated phonon basis.

    Returns:
        VibronicHamiltonian of dimension 4 * basis.size.

    Raises:
        ValueError: if the matrix would be larger than MAX_DENSE_BYTES
            (checked before anything is allocated).
    """
    dimension = 4 * basis.size
    check_bytes(dimension * dimension * 8, f"cutoff {basis.cutoff}", "dense product-space matrix")
    terms = (
        (params.hbar_omega * np.eye(4), number_operator(basis)),
        (pjt_coupling_block(params, "X"), position_operator(basis, "X")),
        (pjt_coupling_block(params, "Y"), position_operator(basis, "Y")),
        (w_matrix(params), np.eye(basis.size)),
    )
    matrix = sum(np.kron(electronic, phonon) for electronic, phonon in terms)
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


def solve(h: VibronicHamiltonian, num_states: int) -> EigenResult:
    """Lowest num_states eigenpairs of h, from one eigh of the whole matrix.

    Args:
        h: Assembled vibronic Hamiltonian.
        num_states: Number k of lowest eigenpairs wanted, 1 .. dimension.

    Returns:
        EigenResult with ascending energies and orthonormal vectors.

    Raises:
        ValueError: num_states below 1 or above the matrix dimension.
    """
    k = num_states
    if k < 1:
        raise ValueError(f"num_states must be >= 1, got {k}")
    if k > h.dimension:
        raise ValueError(f"num_states {k} exceeds matrix dimension {h.dimension}")
    energies, vectors = np.linalg.eigh(h.matrix)
    energies, vectors = energies[:k], vectors[:, :k]
    residuals = np.linalg.norm(h.matrix @ vectors - vectors * energies, axis=0)
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
    gives R = 1 (two zero-point halves).

    Args:
        state_vector: Normalized coefficient vector, electronic index slowest.
        basis: Phonon basis the vector lives on.

    Returns:
        Dimensionless R >= 0.
    """
    blocks = _reshape_blocks(state_vector, basis)
    x_op = position_operator(basis, "X")
    y_op = position_operator(basis, "Y")
    second_moment = 0.0
    for component in blocks:
        second_moment += np.linalg.norm(x_op @ component) ** 2
        second_moment += np.linalg.norm(y_op @ component) ** 2
    return math.sqrt(second_moment)


def rotation_generator(basis: FockBasis) -> np.ndarray:
    """Real antisymmetric K over electronic x Fock space with J = L_z + S = iK.

    L_z = i (a_y^dag a_x - a_x^dag a_y) is the phonon angular momentum and
    S = i (|Eux><Euy| - |Euy><Eux|) is +1 on E+ = (Eux - i Euy) / sqrt(2) and
    -1 on E- = (Eux + i Euy) / sqrt(2). <J^2> of a real vector v is
    ||K v||^2.
    """
    phonon = np.zeros((basis.size, basis.size))
    for k, (n, m) in enumerate(basis.states):
        if n >= 1:
            # a_y^dag a_x |n, m> = sqrt(n (m + 1)) |n - 1, m + 1>
            phonon[basis.index[(n - 1, m + 1)], k] = math.sqrt(n * (m + 1.0))
        if m >= 1:
            # -a_x^dag a_y |n, m> = -sqrt((n + 1) m) |n + 1, m - 1>
            phonon[basis.index[(n + 1, m - 1)], k] = -math.sqrt((n + 1.0) * m)
    electronic = np.zeros((4, 4))
    electronic[2, 3], electronic[3, 2] = 1.0, -1.0
    electronic = SYMMETRY_TRANSFORM.T @ electronic @ SYMMETRY_TRANSFORM
    return np.kron(electronic, np.eye(basis.size)) + np.kron(np.eye(4), phonon)


def c3_rotation(basis: FockBasis) -> np.ndarray:
    """The geometric C3: a turn by 120 degrees of (X, Y) and of both orbital
    doublets, each x -> cos x + sin y and y -> cos y - sin x.

    The phonon part maps |n, m> = (a_x^dag)^n (a_y^dag)^m |0> / sqrt(n! m!) to
    the same polynomial in the turned creation operators.
    """
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    phonon = np.zeros((basis.size, basis.size))
    for k, (n, m) in enumerate(basis.states):
        # Coefficients by power p of a_x^dag; a_y^dag carries the rest.
        poly = np.ones(1)
        for _ in range(n):
            poly = np.convolve(poly, [s, c])
        for _ in range(m):
            poly = np.convolve(poly, [c, -s])
        for p, coefficient in enumerate(poly):
            q = n + m - p
            norm = math.sqrt(
                math.factorial(p) * math.factorial(q) / (math.factorial(n) * math.factorial(m))
            )
            phonon[basis.index[(p, q)], k] = coefficient * norm
    # One doublet over (y, x); a determinant's index is 2 g + u.
    doublet = np.array([[c, s], [-s, c]])
    return np.kron(np.kron(doublet, doublet), phonon)


def reflection(basis: FockBasis) -> np.ndarray:
    """Y -> -Y: diag(1, -1, -1, 1) over the determinants times (-1)^m."""
    signs = np.array([(-1.0) ** m for (_, m) in basis.states])
    return np.diag(np.kron([1.0, -1.0, -1.0, 1.0], signs))


# Levels closer than this tie to rounding and form one multiplet, in which a
# full-space solver returns any orthonormal basis. It is the full-space
# analogue of SectorLevels.resolution, 8 n eps ||H||, over the tests' draws
# (n <= 180, ||H|| below 3000 meV); the ties the model's symmetry makes come
# out of eigh within a few eps ||H||. A level pair that a weak coupling
# splits, such as 20 -+ f_u / sqrt(2) at f_u = 1.2e-7 meV, is two
# multiplets: lumped together, their vectors would be turned into mixtures
# of the two.
MULTIPLET_TOL_MEV = 1e-9


def multiplets(energies) -> list[np.ndarray]:
    """Indices of each run of ascending energies closer than MULTIPLET_TOL_MEV."""
    starts = np.flatnonzero(np.diff(np.asarray(energies, dtype=float)) >= MULTIPLET_TOL_MEV) + 1
    return np.split(np.arange(len(energies)), starts)


def symmetry_vectors(energies, vectors, basis: FockBasis) -> np.ndarray:
    """Eigenvectors turned within each multiplet to diagonalize J^2 and, among
    those of J = 0, the reflection; ascending |J| and even before odd.

    The multiplets must be complete, so that each spans a space J and the
    reflection keep.
    """
    vectors = np.array(vectors, dtype=float)
    generator, mirror = rotation_generator(basis), reflection(basis)
    for members in multiplets(energies):
        part = vectors[:, members]
        turned = generator @ part
        part = part @ np.linalg.eigh(turned.T @ turned)[1]
        zero = np.linalg.norm(generator @ part, axis=0) < 0.5
        if zero.any():
            even_first = np.linalg.eigh(part[:, zero].T @ (mirror @ part[:, zero]))[1][:, ::-1]
            part[:, zero] = part[:, zero] @ even_first
        vectors[:, members] = part
    return vectors


@dataclass(eq=False)
class ClassifiedLevel:
    """One full-space level with its symmetry and observables.

    j_squared is <J^2>, reflection is <Y -> -Y>; label follows from them:
    A2u or A1u for even or odd J = 0, A1u+A2u for |J| a nonzero multiple of
    3, Eu otherwise.
    """

    energy: float
    j_squared: float
    reflection: float
    character: np.ndarray
    distortion_r: float

    @property
    def j(self) -> int:
        return round(math.sqrt(max(self.j_squared, 0.0)))

    @property
    def label(self) -> str:
        if self.j == 0:
            return "A2u" if self.reflection > 0 else "A1u"
        return "A1u+A2u" if self.j % 3 == 0 else "Eu"


def classify_levels(
    energies,
    vectors,
    basis: FockBasis,
    *,
    compute_r: bool = True,
) -> list[ClassifiedLevel]:
    """Label full-space levels from <J^2> and the reflection parity.

    The eigenvectors are first turned by symmetry_vectors, so the
    multiplets must be complete.

    Args:
        energies: Ascending energies, meV.
        vectors: Matching eigenvector columns.
        basis: Phonon basis.
        compute_r: Also evaluate R per level (skipping it saves the
            position products when only energies and labels are needed).

    Returns:
        ClassifiedLevels in the order of symmetry_vectors.
    """
    energies = np.asarray(energies, dtype=float)
    vectors = symmetry_vectors(energies, vectors, basis)
    j_squared = np.linalg.norm(rotation_generator(basis) @ vectors, axis=0) ** 2
    parity = np.einsum("si,si->i", vectors, reflection(basis) @ vectors)
    return [
        ClassifiedLevel(
            energy=float(energies[i]),
            j_squared=float(j_squared[i]),
            reflection=float(parity[i]),
            character=electronic_character(vectors[:, i], basis),
            distortion_r=(
                distortion_expectation(vectors[:, i], basis) if compute_r else math.nan
            ),
        )
        for i in range(energies.size)
    ]


def every_sector_levels(params: PjtParams, cutoff: int, num_states: int) -> SectorLevels:
    """Lowest num_states levels from an eigh of both halves of sector 0 and of
    every sector J = 1 .. N + 1, one block at a time.

    Ties between levels resolve as in pjtdiag.sectors.lowest_levels: the
    even half, the odd half, the sectors J = 1 .. N + 1, then their mirrors.
    """
    layout = _layout(
        cutoff, np.array([0, 0, *range(1, cutoff + 2)]), np.array([1, -1] + [0] * (cutoff + 1))
    )
    stack = fill(params, layout)
    size = stack.shape[-1]
    solved = [np.linalg.eigh(matrix) for matrix in stack]
    # (energy, block, column, signed J), the mirrors last.
    candidates, mirrors = [], []
    for block, dim in enumerate(layout.dims):
        j = int(layout.j_values[block])
        for column in range(dim):
            level = (solved[block][0][column], block, column)
            candidates.append((*level, j))
            if j > 0:
                mirrors.append((*level, -j))
    candidates += mirrors
    order = np.argsort([c[0] for c in candidates], kind="stable")[:num_states]

    picked = [candidates[i] for i in order]
    energies = np.array([c[0] for c in picked])
    residuals, top, r_squared = (np.empty(num_states) for _ in range(3))
    by_component = np.empty((num_states, 4))
    for i, (energy, block, column, _) in enumerate(picked):
        part = solved[block][1][:, column]
        weight = part * part
        component = layout.component[block]
        residuals[i] = np.linalg.norm(stack[block] @ part - part * energy)
        by_component[i] = weight @ (component[:, None] == np.arange(4))
        shell = layout.quanta[block] - 1
        top[i] = weight @ ((shell >= cutoff - 1) & (component >= 0))
        moment = np.where(shell < cutoff, shell + 1.0, 0.5 * cutoff) * (component >= 0)
        # Twice the coupling of each slot to the next in R^2.
        r_squared[i] = weight @ moment + (part[:-1] * part[1:]) @ layout.observed[block, size:, 4]
    return SectorLevels(
        energies=energies,
        j=np.array([c[3] for c in picked], dtype=int),
        parity=layout.parity[[c[1] for c in picked]],
        character=np.column_stack(
            [by_component[:, 0], by_component[:, 1], by_component[:, 2] + by_component[:, 3]]
        ),
        r_squared=r_squared,
        top_shell_weight=top,
        residuals=residuals,
        resolution=8.0 * size * np.finfo(float).eps * stack[:, range(size), range(size)].max(),
    )


def exe_levels(hbar_omega: float, f_u: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(energies, j) of every level of the linear E x e problem at cutoff N,
    ascending, one row per level of j > 0; its mirror -j repeats it.

    H_Exe = hbar_omega (n+ + n- + 1) + f_u (sigma_z X + sigma_x Y) acts on an
    electronic doublet and the phonon shells n+ + n- <= N. In the circular
    doublet e+-, sigma_z X + sigma_x Y takes e+ to e- times X + i Y = a+^dag +
    a-, which raises l = n+ - n- by one, so j = l + 1/2 on e+ and l - 1/2 on
    e- is conserved (Longuet-Higgins, Opik, Pryce & Sack, Proc. R. Soc. A
    244, 1 (1958)). Sector j = m + 1/2, m = 0 .. N, holds two chains, e+ at l
    = m and e- at l = m + 1, of the states n_r = min(n+, n-) <= (N - l) / 2.
    All sectors are built at once, padded to N + 1 states, and go through
    one eigvalsh.

    With f_g = Lambda = Xi = 0 the e_g hole of the product Jahn-Teller model
    is a spectator, H = H_Exe kron 1_g, so each of these levels is fourfold
    there: +-j of E x e times the spectator's +-1/2, at J = j +- 1/2 and
    -j +- 1/2.
    """
    n = cutoff
    size = n + 1
    m = np.arange(n + 1)
    # Grid (sector, chain, n_r) of states; chain 0 is e+ at l = m, chain 1
    # is e- at l = m + 1.
    l_val = m[:, None] + np.arange(2)[None, :]
    n_r = np.arange(n // 2 + 1)
    valid = (l_val[:, :, None] <= n) & (n_r[None, None, :] <= ((n - l_val) // 2)[:, :, None])
    position = (np.cumsum(valid.reshape(len(m), -1), axis=1) - 1).reshape(valid.shape)
    dims = valid.sum(axis=(1, 2))
    sec, chain, rank = np.nonzero(valid)
    slot = position[sec, chain, rank]
    shell = l_val[sec, chain] + 2 * rank
    # A state couples to at most two others, each by at most f_u sqrt(N), so
    # a padding diagonal above this lies above every level (Gershgorin).
    stack = np.zeros((len(m), size, size))
    stack[:, range(size), range(size)] = hbar_omega * (n + 2) + 2.0 * f_u * math.sqrt(n + 1)
    stack[sec, slot, slot] = hbar_omega * (shell + 1.0)
    # From e+ at (n+, n-) = (m + n_r, n_r): a+^dag to (n+ + 1, n-), which
    # keeps n_r, and a- to (n+, n- - 1), which lowers it by one.
    plus = chain == 0
    s_sec, s_rank, s_slot = sec[plus], rank[plus], slot[plus]
    moves = (
        (shell[plus] < n, s_rank, np.sqrt(m[s_sec] + s_rank + 1.0)),
        (s_rank >= 1, s_rank - 1, np.sqrt(s_rank)),
    )
    for ok, t_rank, amp in moves:
        b, source, target = s_sec[ok], s_slot[ok], position[s_sec[ok], 1, t_rank[ok]]
        stack[b, target, source] = stack[b, source, target] = f_u * amp[ok]
    values = np.linalg.eigvalsh(stack)
    kept = np.arange(size)[None, :] < dims[:, None]
    energies, j = values[kept], np.broadcast_to(m[:, None] + 0.5, values.shape)[kept]
    order = np.argsort(energies, kind="stable")
    return energies[order], j[order]
