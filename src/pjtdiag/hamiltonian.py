"""Vibronic Hamiltonian of two degenerate orbitals sharing one degenerate mode.

Electronic space: the four two-hole determinants, ordered

    (|e_uy e_gy>, |e_ux e_gy>, |e_uy e_gx>, |e_ux e_gx>).

Symmetry-adapted combinations (A2u, A1u, Eux, Euy), the rows of the
orthogonal SYMMETRY_TRANSFORM, diagonalize the static correlation term W,
which places A1u at +Lambda, A2u at -Lambda, and the Eu pair at -Xi. Each
orbital couples linearly to the (X, Y) components of the mode with its own
strength (f_u, f_g), producing sum and difference channels f_u + f_g and
f_u - f_g along X.

W and the coupling blocks B_X, B_Y make up the vibronic Hamiltonian over
the truncated two-mode Fock space,

    H = hbar_omega * (I4 kron N) + B_X kron X + B_Y kron Y + W kron I_ph,

which ``sectors`` builds and diagonalizes one conserved-J sector at a time.
classical_apes solves the 4x4 electronic matrix at frozen displacements
(x, y) instead, one point or a whole grid at once, in closed form: J is
conserved, so at (rho, 0) the matrix splits into two 2x2 blocks, over
(A2u, Eux) and (A1u, Euy), and the energies and symmetry weights of their
sheets are functions of rho alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SYMMETRY_TRANSFORM",
    "ApesPoint",
    "PjtParams",
    "classical_apes",
    "couplings_from_ejt",
    "ejt_from_couplings",
]

# Maps determinant amplitudes to symmetry amplitudes: rows 0 .. 3 expand
# A2u, A1u, Eux and Euy over the determinants in the order of the module
# docstring, so applied to a determinant-basis vector it gives the A2u, A1u,
# Eux and Euy amplitudes. Orthogonal.
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


@dataclass(frozen=True, eq=False)
class ApesPoint:
    """Classical adiabatic sheets at one nuclear configuration or a grid.

    For coordinate arrays of shape S, x and y have shape S, energies
    S + (4,) and characters S + (4, 3); scalar coordinates give floats x
    and y, and S = ().

    Attributes:
        x, y: Dimensionless mode coordinates.
        energies: The four sheet energies in meV, ascending along the last
            axis.
        characters: Weights (w_a2u, w_a1u, w_eu) of each sheet along the
            last axis, the two Eu components pooled. A sheet lies in the
            (A2u, Eu) or in the (A1u, Eu) plane, so w_a1u or w_a2u is zero;
            sheets of equal energy keep the (A2u, Eu) plane first, lower
            sheet before upper, and the two sheets of a degenerate plane
            carry half of either state. The weights depend on
            rho = |(x, y)| alone.
    """

    x: float | np.ndarray
    y: float | np.ndarray
    energies: np.ndarray
    characters: np.ndarray


def _unsorted_sheets(params: PjtParams, rho, lift):
    """Energies (..., 4) and characters (..., 4, 3) in block order: the
    lower and upper sheet, centre -+ g with g = hypot(h, o), of
    [[centre + h, o], [o, centre - h]] over (A2u, Eux), then over (A1u, Euy),
    with o = coupling * rho."""
    lam, xi = params.lambda_corr, params.xi_corr
    energies = np.empty(rho.shape + (4,))
    characters = np.zeros(rho.shape + (4, 3))
    blocks = (
        (-0.5 * (lam + xi), 0.5 * (xi - lam), -(params.f_u + params.f_g)),
        (0.5 * (lam - xi), 0.5 * (lam + xi), -(params.f_u - params.f_g)),
    )
    for block, (centre, half_gap, coupling) in enumerate(blocks):
        off = coupling * rho
        gap = np.hypot(half_gap, off)
        mid = lift + centre
        lower, upper = 2 * block, 2 * block + 1
        np.subtract(mid, gap, out=energies[..., lower])
        np.add(mid, gap, out=energies[..., upper])
        # The upper sheet carries (1 + h / g) / 2 on A2u or A1u and the rest
        # on Eu. The minority weight (1 - |h| / g) / 2 comes from ratios of at
        # most 1, so that it neither overflows nor loses its relative
        # accuracy when small. Where h is 0 every sheet carries half, also
        # where g is 0 and the block is degenerate.
        if half_gap == 0.0:
            minority = 0.5
        else:
            minority = 0.5 * (off / gap) * (off / (gap + abs(half_gap)))
        majority = 1.0 - minority
        lean = (minority, majority) if half_gap > 0.0 else (majority, minority)
        for sheet, (state, eu) in ((lower, lean), (upper, lean[::-1])):
            characters[..., sheet, block] = state
            characters[..., sheet, 2] = eu
    return energies, characters


def classical_apes(params: PjtParams, x, y) -> ApesPoint:
    """Adiabatic sheets with the mode treated as a classical displacement.

    The sheets are the eigenvalues of hbar_omega * (x^2 + y^2) / 2 * I4 +
    x * B_X + y * B_Y + W, the harmonic restoring energy plus the electronic
    terms at frozen (x, y), and the weights of A2u, A1u and Eu in each.
    Linear coupling conserves J = L_z + S, so both depend on rho = |(x, y)|
    alone: at (rho, 0) the matrix splits into two 2x2 blocks, over
    (A2u, Eux) and (A1u, Euy), whose sheets and weights come in closed
    form. x and y broadcast against each other; every point takes the same
    elementwise arithmetic, so a stacked call and scalar calls agree
    bitwise.

    Args:
        params: Model parameters.
        x, y: Finite dimensionless coordinates, scalars or arrays.

    Returns:
        ApesPoint with ascending energies, the characters of those sheets,
        and the broadcast coordinate shape as leading axes; floats x and y
        for scalar input.

    Raises:
        ValueError: non-finite coordinates, or sheet energies beyond the
            float range; the message names the first such point.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        lift = 0.5 * params.hbar_omega * (x * x + y * y)
        # Bounds every absolute row sum of the sheet matrix, so no entry,
        # block gap or sheet energy exceeds it; while it is finite, the
        # closed form cannot overflow. Non-finite coordinates make it
        # non-finite too.
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
    # Freed before the sort, where the peak memory lies.
    del bound, refused
    energies, characters = _unsorted_sheets(params, np.hypot(x, y), lift)
    del lift
    order = np.argsort(energies, axis=-1, kind="stable")
    # Gather whole rows (sheet k of point i is flat row 4 i + k), several
    # times faster than np.take_along_axis.
    picked = (order.reshape(-1, 4) + np.arange(0, order.size, 4).reshape(-1, 1)).ravel()
    energies = energies.reshape(-1)[picked].reshape(order.shape)
    characters = characters.reshape(-1, 3)[picked].reshape(characters.shape)
    if x.ndim == 0:
        x, y = float(x), float(y)
    return ApesPoint(x=x, y=y, energies=energies, characters=characters)


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
) -> tuple[float, float]:
    """Invert the channel relaxation energies back to (f_g, f_u).

    Only the sum and the magnitude of the difference of the couplings are
    determined; by convention the u orbital carries the larger one, f_u >=
    f_g, the ordering of all built-in presets.

    Args:
        e_jt1: Constructive-channel energy, meV. Must dominate e_jt2.
        e_jt2: Destructive-channel energy, meV, >= 0.
        hbar_omega: Vibrational quantum, meV, > 0.

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
    return 0.5 * (f_sum - f_diff), 0.5 * (f_sum + f_diff)
