"""Vibronic Hamiltonian of two degenerate orbitals sharing one degenerate mode.

Electronic space: the four two-hole determinants, ordered

    (|e_uy e_gy>, |e_ux e_gy>, |e_uy e_gx>, |e_ux e_gx>).

Symmetry-adapted combinations (A2u, A1u, Eux, Euy), the rows of the
orthogonal SYMMETRY_TRANSFORM, diagonalize the static correlation term W,
which places A1u at +Lambda, A2u at -Lambda, and the Eu pair at -Xi. Each
orbital couples linearly to the (X, Y) components of the mode with its own
strength (f_u, f_g), producing sum and difference channels f_u + f_g and
f_u - f_g along X.

W (w_matrix) and the coupling blocks B_X, B_Y (pjt_coupling_block) make up
the vibronic Hamiltonian over the truncated two-mode Fock space,

    H = hbar_omega * (I4 kron N) + B_X kron X + B_Y kron Y + W kron I_ph,

which ``sectors`` builds and diagonalizes one conserved-J sector at a time.
classical_apes diagonalizes the 4x4 electronic matrix at frozen
displacements (x, y) instead: one point, or a whole grid of them stacked into
one (..., 4, 4) np.linalg.eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DETERMINANTS",
    "SYMMETRY_LABELS",
    "SYMMETRY_TRANSFORM",
    "ApesPoint",
    "PjtParams",
    "classical_apes",
    "couplings_from_ejt",
    "ejt_from_couplings",
    "pjt_coupling_block",
    "w_matrix",
]

DETERMINANTS: tuple[str, str, str, str] = (
    "e_uy e_gy",
    "e_ux e_gy",
    "e_uy e_gx",
    "e_ux e_gx",
)

SYMMETRY_LABELS: tuple[str, str, str, str] = ("A2u", "A1u", "Eux", "Euy")

# Maps determinant amplitudes to symmetry amplitudes: row i expands
# SYMMETRY_LABELS[i] over DETERMINANTS, so for a determinant-basis vector c,
# SYMMETRY_TRANSFORM @ c holds the A2u, A1u, Eux, Euy amplitudes. Orthogonal.
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


@dataclass(frozen=True)
class PjtParams:
    """Model parameters, all energies in meV.

    Attributes:
        hbar_omega: Quantum of the doubly degenerate vibration.
        lambda_corr: Static correlation splitting Lambda (A1u sits at
            +Lambda, A2u at -Lambda before vibronic coupling).
        xi_corr: Static correlation shift Xi of the Eu pair (at -Xi).
        f_g: Linear vibronic coupling of the gerade orbital.
        f_u: Linear vibronic coupling of the ungerade orbital.
    """

    hbar_omega: float
    lambda_corr: float
    xi_corr: float
    f_g: float
    f_u: float

    def __post_init__(self) -> None:
        for name in ("hbar_omega", "lambda_corr", "xi_corr", "f_g", "f_u"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not math.isfinite(self.hbar_omega) or self.hbar_omega <= 0:
            raise ValueError(
                f"hbar_omega must be positive and finite, got {self.hbar_omega}"
            )
        for name in ("lambda_corr", "xi_corr", "f_g", "f_u"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


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


@dataclass(frozen=True, eq=False)
class ApesPoint:
    """Classical adiabatic energies at one nuclear configuration or a grid.

    The coordinate shape leads every array: for scalar coordinates x and y
    are floats and energies has shape (4,); for coordinate arrays of shape
    S, x and y are arrays of shape S and energies has shape S + (4,).

    Attributes:
        x, y: Dimensionless mode coordinates.
        energies: The four sheet energies in meV, ascending along the last
            axis.
        vectors: Electronic eigenvectors as columns (determinant basis), shape
            S + (4, 4), matching ``energies``. Within a degenerate pair of
            sheets the columns follow the numerical eigenbasis.
    """

    x: float | np.ndarray
    y: float | np.ndarray
    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)

    @property
    def characters(self) -> np.ndarray:
        """Per-sheet weights of shape S + (4, 3): entry [..., i, :] holds
        (w_a2u, w_a1u, w_eu) of sheet i, the two Eu components pooled. At
        exact sheet degeneracies the split between the degenerate rows
        follows the numerical eigenbasis."""
        weights = (SYMMETRY_TRANSFORM @ self.vectors) ** 2
        return np.stack(
            [weights[..., 0, :], weights[..., 1, :], weights[..., 2, :] + weights[..., 3, :]],
            axis=-1,
        )


def classical_apes(params: PjtParams, x, y) -> ApesPoint:
    """Adiabatic sheets with the mode treated as a classical displacement.

    Diagonalizes hbar_omega * (x^2 + y^2) / 2 * I4 + x * B_X + y * B_Y + W,
    the harmonic restoring energy plus the electronic terms at frozen (x, y).
    x and y broadcast against each other; all points go through one stacked
    np.linalg.eigh.

    Args:
        params: Model parameters.
        x, y: Finite dimensionless coordinates, scalars or arrays.

    Returns:
        ApesPoint with ascending energies and the broadcast coordinate shape
        as leading axes; floats x and y for scalar input.

    Raises:
        ValueError: non-finite coordinates, or sheet energies beyond the
            float range; the message names the first such point.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        lift = 0.5 * params.hbar_omega * (x * x + y * y)
        # Bounds every absolute row sum of the sheet matrix, so no entry,
        # partial sum or eigenvalue exceeds it; while it is finite, eigh
        # cannot overflow. Non-finite coordinates make it non-finite too.
        bound = (
            lift
            + (np.abs(x) + np.abs(y)) * (params.f_g + params.f_u)
            + params.lambda_corr
            + params.xi_corr
        )
    refused = ~np.isfinite(bound)
    if refused.any():
        first = np.unravel_index(np.argmax(refused), refused.shape)
        at = (float(x[first]), float(y[first]))
        if not (math.isfinite(at[0]) and math.isfinite(at[1])):
            raise ValueError(f"coordinates must be finite, got {at}")
        raise ValueError(f"sheet energies at {at} are beyond the float range")
    h4 = lift[..., None, None] * np.eye(4)
    h4 += x[..., None, None] * pjt_coupling_block(params, "X")
    h4 += y[..., None, None] * pjt_coupling_block(params, "Y")
    h4 += w_matrix(params)
    energies, vectors = np.linalg.eigh(h4)
    if x.ndim == 0:
        x, y = float(x), float(y)
    return ApesPoint(x=x, y=y, energies=energies, vectors=vectors)


def ejt_from_couplings(params: PjtParams) -> tuple[float, float]:
    """Relaxation energies of the constructive and destructive channels.

    Returns:
        (e_jt1, e_jt2) in meV with e_jt1 = (f_g + f_u)^2 / (2 hbar_omega) and
        e_jt2 = (f_g - f_u)^2 / (2 hbar_omega).
    """
    total = params.f_g + params.f_u
    diff = params.f_g - params.f_u
    return (
        total * total / (2.0 * params.hbar_omega),
        diff * diff / (2.0 * params.hbar_omega),
    )


def couplings_from_ejt(
    e_jt1: float,
    e_jt2: float,
    hbar_omega: float,
    u_dominant: bool = True,
) -> tuple[float, float]:
    """Invert the channel relaxation energies back to (f_g, f_u).

    Only the sum and the magnitude of the difference of the couplings are
    determined; ``u_dominant`` picks which orbital carries the larger one
    (default f_u >= f_g, the ordering of all built-in presets).

    Args:
        e_jt1: Constructive-channel energy, meV. Must dominate e_jt2.
        e_jt2: Destructive-channel energy, meV, >= 0.
        hbar_omega: Vibrational quantum, meV, > 0.
        u_dominant: If True return f_u >= f_g, otherwise f_g >= f_u.

    Returns:
        (f_g, f_u) in meV.
    """
    if not (math.isfinite(hbar_omega) and hbar_omega > 0):
        raise ValueError(f"hbar_omega must be positive and finite, got {hbar_omega}")
    if not (math.isfinite(e_jt1) and math.isfinite(e_jt2)) or e_jt2 < 0:
        raise ValueError(f"channel energies must be finite and >= 0, got ({e_jt1}, {e_jt2})")
    if e_jt1 < e_jt2:
        raise ValueError(
            f"e_jt1 must be >= e_jt2 (sum channel dominates), got ({e_jt1}, {e_jt2})"
        )
    f_sum = math.sqrt(2.0 * hbar_omega * e_jt1)
    f_diff = math.sqrt(2.0 * hbar_omega * e_jt2)
    small = 0.5 * (f_sum - f_diff)
    large = 0.5 * (f_sum + f_diff)
    return (small, large) if u_dominant else (large, small)
