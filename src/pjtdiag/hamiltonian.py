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
(x, y) instead, one point or a whole grid at once, in closed form: at
(rho, 0) the matrix splits into two 2x2 blocks, over (A2u, Eux) and
(A1u, Euy), and a turn by the polar angle phi of (x, y) carries their
eigenvectors to (x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# docstring, so for a determinant-basis vector c, SYMMETRY_TRANSFORM @ c holds
# the A2u, A1u, Eux, Euy amplitudes. Orthogonal.
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
    """Classical adiabatic energies at one nuclear configuration or a grid.

    The coordinate shape leads every array: for scalar coordinates x and y
    are floats and energies has shape (4,); for coordinate arrays of shape
    S, x and y are arrays of shape S and energies has shape S + (4,).

    Attributes:
        x, y: Dimensionless mode coordinates.
        energies: The four sheet energies in meV, ascending along the last
            axis.
        vectors: Electronic eigenvectors as columns (determinant basis), shape
            S + (4, 4), matching ``energies``. Each column lies in one of two
            planes, A2u with cos(phi) Eux - sin(phi) Euy or A1u with
            sin(phi) Eux + cos(phi) Euy, where phi is the polar angle of
            (x, y) and 0 at the origin. Sheets of equal energy keep the
            order of the (A2u, ...) plane before the (A1u, ...) plane, lower
            state before upper; where a plane's two states are degenerate,
            its columns are their sum and difference over sqrt(2).
    """

    x: float | np.ndarray
    y: float | np.ndarray
    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)

    @property
    def characters(self) -> np.ndarray:
        """Per-sheet weights of shape S + (4, 3): entry [..., i, :] holds
        (w_a2u, w_a1u, w_eu) of sheet i, the two Eu components pooled. The
        weights are those of ``vectors``, so at a degeneracy between the two
        planes each row holds one plane's weights, with either w_a1u or
        w_a2u zero. Up to rounding they do not change when (x, y) turns
        about the origin."""
        return _pooled((SYMMETRY_TRANSFORM @ self.vectors).swapaxes(-1, -2))

    def sheet_characters(self, sheet: int) -> np.ndarray:
        """characters[..., sheet, :] alone, shape S + (3,), bit for bit,
        without pooling the other sheets' weights."""
        return _pooled((SYMMETRY_TRANSFORM @ self.vectors)[..., sheet])


def _pooled(amplitudes: np.ndarray) -> np.ndarray:
    """(w_a2u, w_a1u, w_eu) along a new last axis, from the A2u, A1u, Eux
    and Euy amplitudes along the last axis."""
    weights = amplitudes**2
    return np.stack(
        [weights[..., 0], weights[..., 1], weights[..., 2] + weights[..., 3]], axis=-1
    )


def _half_angles(half_gap: float, off, gap):
    """Upper eigenvector (c, s) / sqrt(2) of [[m + half_gap, off], [off, m - half_gap]].

    gap is hypot(half_gap, off); (c, s) belongs to m + gap and (-s, c) to
    m - gap. Half-angle formulas with sqrt and division only, no trig
    ufuncs, so that stacked and scalar calls agree bitwise. Where off is 0
    as well as half_gap, any basis will do; this one is (1, +-1) / sqrt(2).
    """
    if half_gap == 0.0:
        return 0.5, np.copysign(0.5, off)
    big = np.sqrt(0.25 + 0.25 * (abs(half_gap) / gap))
    small = 0.25 * (off / gap) / big
    return (big, small) if half_gap > 0.0 else (small, big)


def _unsorted_sheets(params: PjtParams, x, y, lift):
    """Energies (..., 4) and vectors as rows (..., 4, 4), in block order.

    At (rho, 0) the sheet matrix splits into [[centre + h, o], [o, centre - h]]
    over (A2u, Eux) and over (A1u, Euy), with o = coupling * rho. Turning to
    the polar angle phi of (x, y) maps (Eux, Euy) to (cos Eux + sin Euy,
    cos Euy - sin Eux) and leaves A2u and A1u alone. Sheets come lower then
    upper, the (A2u, Eux) block first; row k is the vector of sheet k over
    the determinants.
    """
    lam, xi = params.lambda_corr, params.xi_corr
    rho = np.hypot(x, y)
    turned = rho > 0.0
    cos = np.divide(x, rho, out=np.ones(rho.shape), where=turned)
    sin = np.divide(y, rho, out=np.zeros(rho.shape), where=turned)
    # For subnormal coordinates rho is rounded coarsely, and only the ratio
    # of cos and sin is right until they are scaled back to unit length.
    norm = np.hypot(cos, sin)
    cos /= norm
    sin /= norm
    energies = np.empty(rho.shape + (4,))
    rows = np.empty(rho.shape + (4, 4))
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
        c, s = _half_angles(half_gap, off, gap)
        for k, (a, e) in ((lower, (-s, c)), (upper, (c, s))):
            # Symmetry amplitudes (a, e) / sqrt(2) of A2u or A1u and of the
            # turned Eu; the determinants are (A2u - Eux, A1u + Euy,
            # Euy - A1u, A2u + Eux) / sqrt(2).
            along, across = cos * e, sin * e
            row = rows[..., k, :]
            if block == 0:
                np.subtract(a, along, out=row[..., 0])
                np.negative(across, out=row[..., 1])
                row[..., 2] = row[..., 1]
                np.add(a, along, out=row[..., 3])
            else:
                np.negative(across, out=row[..., 0])
                np.add(a, along, out=row[..., 1])
                np.subtract(along, a, out=row[..., 2])
                row[..., 3] = across
    return energies, rows


def classical_apes(params: PjtParams, x, y) -> ApesPoint:
    """Adiabatic sheets with the mode treated as a classical displacement.

    The sheets are the eigenpairs of hbar_omega * (x^2 + y^2) / 2 * I4 +
    x * B_X + y * B_Y + W, the harmonic restoring energy plus the electronic
    terms at frozen (x, y). Linear coupling conserves J = L_z + S, so the
    energies depend on rho = |(x, y)| alone: at (rho, 0) the matrix splits
    into two 2x2 blocks, over (A2u, Eux) and (A1u, Euy), with closed-form
    eigensystems, and a turn by the polar angle phi of (x, y) carries their
    eigenvectors to (x, y). x and y broadcast against each other; every
    point takes the same elementwise arithmetic, so a stacked call and
    scalar calls agree bitwise.

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
    # The block temporaries die with _unsorted_sheets, before the sort below
    # holds two copies of the vectors.
    energies, rows = _unsorted_sheets(params, x, y, lift)
    order = np.argsort(energies, axis=-1, kind="stable")
    # Gather whole rows (sheet k of point i is flat row 4 i + k), several
    # times faster than np.take_along_axis on columns, then transpose so that
    # the columns hold the vectors.
    picked = (order.reshape(-1, 4) + np.arange(0, order.size, 4).reshape(-1, 1)).ravel()
    energies = energies.reshape(-1)[picked].reshape(order.shape)
    rows = rows.reshape(-1, 4)[picked].reshape(rows.shape)
    vectors = np.ascontiguousarray(rows.swapaxes(-1, -2))
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
