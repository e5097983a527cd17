"""Parameters and classical adiabatic sheets of the vibronic model.

Two degenerate orbitals, e_g and e_u, each hold one hole. The static
correlation term W splits their four two-hole states by symmetry: A1u sits
at +Lambda, A2u at -Lambda and the Eu pair at -Xi. Each orbital couples
linearly to the (X, Y) components of one doubly degenerate mode with its
own strength (f_u, f_g), producing sum and difference channels f_u + f_g
and f_u - f_g along X; ejt_from_couplings and couplings_from_ejt trade the
couplings for the relaxation energies of the two channels. PRESETS holds
the parameters of the four neutral group-IV vacancy centers in diamond.

``sectors`` builds the vibronic Hamiltonian over the truncated two-mode
Fock space and diagonalizes it one conserved-J sector at a time.
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
    "ApesPoint",
    "PRESETS",
    "PjtParams",
    "classical_apes",
    "couplings_from_ejt",
    "ejt_from_couplings",
]


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


# The neutral group-IV vacancy centers in diamond, by the name the CLI's
# --preset takes (case-insensitively).
PRESETS: dict[str, PjtParams] = {
    "SiV": PjtParams(hbar_omega=75.9, lambda_corr=78.3, xi_corr=45.0, f_g=95.0, f_u=103.0),
    "GeV": PjtParams(hbar_omega=78.2, lambda_corr=88.6, xi_corr=40.0, f_g=83.0, f_u=112.0),
    "SnV": PjtParams(hbar_omega=81.3, lambda_corr=99.5, xi_corr=42.0, f_g=67.0, f_u=120.0),
    "PbV": PjtParams(hbar_omega=81.4, lambda_corr=119.0, xi_corr=36.0, f_g=52.0, f_u=125.0),
}


@dataclass(frozen=True, eq=False)
class ApesPoint:
    """Classical adiabatic sheets at one nuclear configuration or a grid.

    For coordinates (x, y) of broadcast shape S, energies have shape
    S + (4,) and characters S + (4, 3); scalar coordinates give S = ().

    Attributes:
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
        # on Eu. The minority weight (1 - |h| / g) / 2, written as
        # (o / g)^2 / (2 + 2 |h| / g), comes from ratios of at most 1, so that
        # it neither overflows, as g + |h| can where every sheet energy is
        # finite, nor loses its relative accuracy when small. Where h is 0
        # every sheet carries half, also where g is 0 and the block is
        # degenerate.
        if half_gap == 0.0:
            minority = 0.5
        else:
            ratio = off / gap
            minority = ratio * ratio / (2.0 + 2.0 * abs(half_gap) / gap)
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
        ApesPoint with ascending energies and the characters of those
        sheets; for coordinates of broadcast shape S, energies have shape
        S + (4,) and characters S + (4, 3).

    Raises:
        ValueError: non-finite coordinates, or sheet energies beyond the
            float range; the message names the first such point.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        lift = 0.5 * params.hbar_omega * (x * x + y * y)
        energies, characters = _unsorted_sheets(params, np.hypot(x, y), lift)
    del lift
    # A non-finite coordinate, and an overflow in x * x, in coupling * rho or
    # in hypot, makes a sheet energy non-finite.
    if not np.isfinite(energies).all():
        first = np.unravel_index(np.argmin(np.isfinite(energies)), energies.shape)[:-1]
        at = (float(x[first]), float(y[first]))
        if not (math.isfinite(at[0]) and math.isfinite(at[1])):
            raise ValueError(f"coordinates must be finite, got {at}")
        raise ValueError(f"sheet energies at {at} are beyond the float range")
    order = np.argsort(energies, axis=-1, kind="stable")
    # Gather whole rows (sheet k of point i is flat row 4 i + k), several
    # times faster than np.take_along_axis.
    picked = (order.reshape(-1, 4) + np.arange(0, order.size, 4).reshape(-1, 1)).ravel()
    energies = energies.reshape(-1)[picked].reshape(order.shape)
    characters = characters.reshape(-1, 3)[picked].reshape(characters.shape)
    return ApesPoint(energies=energies, characters=characters)


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
