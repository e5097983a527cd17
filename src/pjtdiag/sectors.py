"""The vibronic Hamiltonian split into sectors of conserved angular momentum.

The model conserves J = L_z + S, the phonon angular momentum plus an
electronic generator S that is 0 on A2u and A1u and +1/-1 on the circular
doublet components E+ = (Eux - i Euy) / sqrt(2) and E- = (Eux + i Euy) /
sqrt(2). It is the two-orbital analogue of the conserved j of the E x e
problem (Longuet-Higgins, Opik, Pryce & Sack, Proc. R. Soc. A 244, 1 (1958)).

In circular oscillator quanta a+/- = (a_x -/+ i a_y) / sqrt(2), a phonon
state |n+, n-> carries l = n+ - n- and lies in shell n+ + n-. Shells up to
the cutoff N span the same space as the Cartesian number states |n, m> with
n + m <= N, so the sector matrices are the truncated full-space matrix in
another basis. In it W is diagonal and the only coupling is

    B_X X + B_Y Y = 1/2 B- (a+^dag + a-) + h.c.,   B- = B_X - i B_Y,

where (a+^dag + a-) raises l by one and B- lowers S by one. Taking i * A1u
in place of A1u makes every element real. Sector J holds the states
|n_r, l = J - S> of each electronic component, with n_r = min(n+, n-) <=
(N - |l|) / 2: 2N + 2 states at J = 0, fewer as |J| grows, none beyond
|J| = N + 1. Sector -J is the mirror image of sector J, so its levels repeat
those of J and only J >= 0 is diagonalized. The lowest k levels need only the
sectors that can hold one: lowest_levels diagonalizes J = 0 .. k // 2, which
hold at least k levels, and certifies the rest with a Cholesky test against
the k-th of their levels, diagonalizing them only when the test fails.

Within a component the states are ordered by n_r, which makes the second
moment of the truncated position operators, <(PXP)^2 + (PYP)^2>, a
tridiagonal matrix in each sector; R comes from it without any position
operator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PjtParams

__all__ = [
    "MAX_DENSE_BYTES",
    "ConvergenceError",
    "SectorLevels",
    "check_cutoff",
    "lowest_levels",
    "sector_matrices",
]

# Largest dense array a route may allocate, in bytes. Refusing beyond it keeps
# a large cutoff from exhausting memory; the peak is a few times this.
MAX_DENSE_BYTES = 2**28

# Electronic components of every sector: A2u, i * A1u, E+, E-.
_SPIN = np.array([0, 0, 1, -1])

# B- couples a component with S to one with S - 1 and raises l by one:
# (target, source) pairs; _fill gives 1/2 <target|B-|source> of each.
_COUPLED = ((0, 2), (1, 2), (3, 0), (3, 1))


class ConvergenceError(RuntimeError):
    """A diagonalization could not push every residual below the requested tolerance.

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


def _index(value, name: str) -> int:
    """value as an int, refusing floats and other non-integers by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_cutoff(cutoff: int, num_states: int | None = None) -> None:
    """Reject a cutoff, or a level count, before anything is allocated.

    Args:
        cutoff: Fock cutoff N, >= 0.
        num_states: Levels wanted, at most the full dimension
            2 (N + 1)(N + 2); None skips this check.

    Raises:
        TypeError: a cutoff or level count that is not an integer.
        ValueError: negative cutoff, a padded sector stack larger than
            MAX_DENSE_BYTES, or more levels than states.
    """
    cutoff = _index(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    # Sectors J = 0 .. N + 1, padded to the largest dimension 2N + 2.
    needed = (cutoff + 2) * (2 * cutoff + 2) ** 2 * 8
    if needed > MAX_DENSE_BYTES:
        raise ValueError(
            f"cutoff {cutoff} needs {needed / 2**20:.0f} MiB of sector matrices, "
            f"beyond the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )
    if num_states is None:
        return
    if _index(num_states, "num_states") < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    dimension = 2 * (cutoff + 1) * (cutoff + 2)
    if num_states > dimension:
        raise ValueError(f"num_states {num_states} exceeds matrix dimension {dimension}")


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each basis state and coupling sits in the padded sector stack.

    Arrays of shape (sectors, size) describe slots; padding slots have
    component -1. ``coupling`` lists (sector, row, column, pair, amplitude)
    with the target slot as row and the source slot as column, one entry
    per phonon matrix element; the transposed entry is implied.
    """

    j_values: np.ndarray
    dims: np.ndarray
    component: np.ndarray
    shell: np.ndarray
    moment_diag: np.ndarray
    moment_off: np.ndarray
    coupling: tuple[np.ndarray, ...]


def _layout(cutoff: int, j_values: np.ndarray) -> _Layout:
    n = cutoff
    chain = n // 2 + 1
    # Grid (sector, component, n_r) of candidate states.
    l_val = j_values[:, None] - _SPIN[None, :]
    n_r = np.arange(chain)
    valid = (np.abs(l_val)[:, :, None] <= n) & (
        n_r[None, None, :] <= (n - np.abs(l_val))[:, :, None] // 2
    )
    flat_valid = valid.reshape(len(j_values), -1)
    position = (np.cumsum(flat_valid, axis=1) - 1).reshape(valid.shape)
    position[~valid] = -1
    dims = flat_valid.sum(axis=1)
    size = 2 * n + 2

    sec, comp, rank = np.nonzero(valid)
    slot = position[sec, comp, rank]
    l_slot = l_val[sec, comp]
    shell_slot = np.abs(l_slot) + 2 * rank
    n_plus = (shell_slot + l_slot) // 2
    n_minus = (shell_slot - l_slot) // 2

    component = np.full((len(j_values), size), -1)
    component[sec, slot] = comp
    shell = np.zeros((len(j_values), size), dtype=int)
    shell[sec, slot] = shell_slot
    # <(PXP)^2 + (PYP)^2>: s + 1 below the cutoff, N / 2 on the top shell,
    # and sqrt((n+ + 1)(n- + 1)) between n_r and n_r + 1 of one chain.
    moment_diag = np.zeros((len(j_values), size))
    moment_diag[sec, slot] = np.where(shell_slot < n, shell_slot + 1.0, 0.5 * n)
    moment_off = np.zeros((len(j_values), size))
    has_next = shell_slot + 2 <= n
    moment_off[sec[has_next], slot[has_next]] = np.sqrt(
        (n_plus[has_next] + 1.0) * (n_minus[has_next] + 1.0)
    )

    # (a+^dag + a-) from each source slot to the target component's chain
    # at l + 1: a+^dag adds one quantum, a- removes one.
    parts = []
    for pair, (target, source) in enumerate(_COUPLED):
        src = comp == source
        s_sec, s_slot, s_plus, s_minus = sec[src], slot[src], n_plus[src], n_minus[src]
        moves = (
            (s_plus + s_minus < n, s_plus + 1, s_minus, np.sqrt(s_plus + 1.0)),
            (s_minus >= 1, s_plus, s_minus - 1, np.sqrt(s_minus)),
        )
        for ok, t_plus, t_minus, amp in moves:
            t_slot = position[s_sec[ok], target, np.minimum(t_plus, t_minus)[ok]]
            parts.append(
                (s_sec[ok], t_slot, s_slot[ok], np.full(ok.sum(), pair), amp[ok])
            )
    return _Layout(
        j_values=j_values,
        dims=dims,
        component=component,
        shell=shell,
        moment_diag=moment_diag,
        moment_off=moment_off,
        coupling=tuple(np.concatenate(column) for column in zip(*parts)),
    )


def _fill(params: PjtParams, layout: _Layout) -> np.ndarray:
    """Padded stack of sector matrices; padding sits above every level."""
    sectors, size = layout.component.shape
    f_sum, f_diff = params.f_u + params.f_g, params.f_u - params.f_g
    # 1/2 <target|B-|source> of the _COUPLED pairs.
    halves = np.array([-f_sum, f_diff, -f_sum, -f_diff]) / math.sqrt(2.0)
    w_diag = np.array(
        [-params.lambda_corr, params.lambda_corr, -params.xi_corr, -params.xi_corr]
    )
    stack = np.zeros((sectors, size, size))
    sec, row, col, pair, amp = layout.coupling
    values = halves[pair] * amp
    stack[sec, row, col] = values
    stack[sec, col, row] = values
    real = layout.component >= 0
    diagonal = np.where(
        real,
        params.hbar_omega * (layout.shell + 1.0) + w_diag[layout.component],
        0.0,
    )
    # Gershgorin: every eigenvalue is at most the largest absolute row sum.
    ceiling = (np.abs(stack).sum(axis=2) + np.abs(diagonal)).max() + 1.0
    index = np.arange(size)
    stack[:, index, index] = np.where(real, diagonal, ceiling)
    return stack


@functools.lru_cache(maxsize=1)
def _sector_layout(cutoff: int) -> _Layout:
    """_layout of the sectors J = 0 .. N + 1, kept for the most recent cutoff.

    A fit calls lowest_levels many times at one cutoff, and the layout
    depends on the cutoff alone. Its arrays are read-only because every
    such call shares them.
    """
    layout = _layout(cutoff, np.arange(cutoff + 2))
    for array in (
        layout.j_values,
        layout.dims,
        layout.component,
        layout.shell,
        layout.moment_diag,
        layout.moment_off,
        *layout.coupling,
    ):
        array.setflags(write=False)
    return layout


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
    check_cutoff(cutoff)
    js = np.arange(cutoff + 2) if j_values is None else np.asarray(j_values, dtype=int)
    layout = _layout(cutoff, js)
    return layout.j_values, layout.dims, _fill(params, layout)


@dataclass(eq=False)
class SectorLevels:
    """Lowest levels of the full space, collected from the J sectors.

    Attributes:
        energies: Ascending energies, meV. A level of J > 0 appears twice,
            once for J and once for its mirror -J.
        character: (k, 4) electronic weights (w_a2u, w_a1u, w_eux, w_euy);
            the E+ and E- weight splits evenly onto Eux and Euy.
        r_squared: <X^2 + Y^2> of the truncated position operators.
        top_shell_weight: Weight in the top two Fock shells.
        residuals: ||H v - E v|| in the sector, meV.
    """

    energies: np.ndarray
    character: np.ndarray
    r_squared: np.ndarray
    top_shell_weight: np.ndarray
    residuals: np.ndarray


def _lowest(
    values: np.ndarray, layout: _Layout, num_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """(sector, column) of the num_states lowest levels of the sectors in values.

    Levels of J > 0 count twice, once for the mirror -J. Ties keep the order
    sector by sector, then the mirrors, so they resolve as they would over
    every sector.
    """
    sec, col = np.nonzero(np.arange(values.shape[1]) < layout.dims[: len(values), None])
    mirrored = layout.j_values[sec] > 0
    sec = np.concatenate([sec, sec[mirrored]])
    col = np.concatenate([col, col[mirrored]])
    order = np.argsort(values[sec, col], kind="stable")[:num_states]
    return sec[order], col[order]


def _all_above(stack: np.ndarray, level: float) -> bool:
    """Whether every level of every matrix in a padded sector stack lies above level.

    By Sylvester's law of inertia, H - s I has a Cholesky factorization
    exactly when H has no eigenvalue at or below s. In floating point, a
    factorization that succeeds is exact for H - s I + E, where ||E|| is
    typically about size * eps * ||H - s I|| and at most about size**2 * eps
    * ||H - s I|| (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10); here ||H - s I|| is at most twice the ceiling. The shift s lies
    above level by several times that worst case, so a sector passes only if
    its levels, and eigh's values of them, lie strictly above level; skipping
    it cannot change which levels tie at level. A larger margin costs only
    speed, through more fallbacks.
    """
    size = stack.shape[-1]
    # Sectors J >= 1 have fewer than 2N + 2 states, so each carries padding,
    # whose diagonal is _fill's Gershgorin ceiling: above |every level|.
    ceiling = stack.diagonal(axis1=1, axis2=2).max()
    shift = level + 8.0 * size * size * np.finfo(float).eps * ceiling
    if not np.isfinite(shift):
        # The ceiling overflowed: no bound, and LAPACK passes inf and nan.
        return False
    # Shifted in place, and restored exactly, so that no copy of the stack
    # sits beside the factor.
    index = np.arange(size)
    diagonal = stack[:, index, index]
    stack[:, index, index] -= shift
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    finally:
        stack[:, index, index] = diagonal
    return True


def lowest_levels(
    params: PjtParams,
    cutoff: int,
    num_states: int,
    *,
    tolerance: float = 1e-8,
) -> SectorLevels:
    """Lowest num_states levels, diagonalizing only the sectors that can hold one.

    Sectors J = 0 .. m - 1, m = num_states // 2 + 1, hold at least
    num_states levels counting mirrors, so the num_states-th lowest of their
    levels, U, is an upper bound on the wanted ones. They go through one
    batched eigh. The remaining sectors go through one batched Cholesky
    factorization of H_J - (U + margin): by Sylvester's law of inertia it
    succeeds only if every level of sector J lies above U + margin, and those
    sectors are then skipped. If it fails they are diagonalized too. Either
    way the levels, and the choice among levels tied at U, are those of a
    diagonalization of every sector.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff N.
        num_states: Levels wanted, 1 .. 2 (N + 1)(N + 2).
        tolerance: Residual bound, meV.

    Returns:
        SectorLevels in ascending energy order.

    Raises:
        ValueError: invalid request or a cutoff beyond the memory limit.
        ConvergenceError: a residual exceeds tolerance.
    """
    check_cutoff(cutoff, num_states)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    layout = _sector_layout(cutoff)
    stack = _fill(params, layout)
    head = min(len(stack), num_states // 2 + 1)
    values, vectors = np.linalg.eigh(stack[:head])
    sec, col = _lowest(values, layout, num_states)
    if head < len(stack) and not _all_above(stack[head:], values[sec[-1], col[-1]]):
        rest_values, rest_vectors = np.linalg.eigh(stack[head:])
        values = np.concatenate([values, rest_values])
        vectors = np.concatenate([vectors, rest_vectors])
        sec, col = _lowest(values, layout, num_states)
    energies = values[sec, col]

    # A sector's wanted levels are its lowest columns, so the observables are
    # formed for the lowest columns of the sectors up to the highest one
    # used, and the wanted levels are gathered from them.
    used, width = sec.max() + 1, col.max() + 1
    cols = vectors[:used, :, :width]
    residual = stack[:used] @ cols
    residual -= cols * values[:used, None, :width]
    residuals = np.sqrt(np.einsum("jsc,jsc->jc", residual, residual))
    # Freed before the weights, so that at most two arrays of the size of
    # cols are live beside the stack and its eigenvectors.
    del residual
    weight = cols * cols
    component = layout.component[:used]
    top_shell = (layout.shell[:used] >= cutoff - 1) & (component >= 0)
    by_component = np.einsum("jsc,jsf->jcf", weight, component[:, :, None] == np.arange(4))
    top = np.einsum("jsc,js->jc", weight, top_shell)
    r_squared = np.einsum("jsc,js->jc", weight, layout.moment_diag[:used]) + 2.0 * np.einsum(
        "jsc,jsc,js->jc", cols[:, :-1], cols[:, 1:], layout.moment_off[:used, :-1]
    )
    residuals, by_component, top, r_squared = (
        array[sec, col] for array in (residuals, by_component, top, r_squared)
    )
    if np.any(residuals > tolerance):
        raise ConvergenceError(
            f"sector residuals up to {residuals.max():.3e} meV exceed "
            f"tolerance {tolerance:.3e}",
            energies=energies,
            residuals=residuals,
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
