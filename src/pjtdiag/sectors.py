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
those of J and only J >= 0 is diagonalized.

The reflection Y -> -Y maps J to -J. It swaps E+ and E- and the chains l
and -l, and changes the sign of A1u, so it splits sector 0 into two halves
of N + 1 states: the even one holds A2u and (E+ + E-) / sqrt(2), the odd one
i * A1u and (E+ - E-) / sqrt(2), each coupled sqrt(2) times as strongly as
A2u or i * A1u is to E+ alone. lowest_levels diagonalizes the halves in
place of sector 0 and returns each level's signed J and, at J = 0, its
parity. The lowest k levels need only the blocks that can hold one: the
halves and J = 1 .. k // 2, the head, hold at least k levels and are
diagonalized padded to 2N + 2. The rest are certified with a Cholesky test
against the k-th of the head's levels, factored at their own largest
dimension. Only when the test fails is every block taken as the head and
diagonalized, padded to 2N + 2, in one call.

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
]

# Largest dense array a route may allocate, in bytes. Refusing beyond it keeps
# a large cutoff from exhausting memory. The tracemalloc peak of lowest_levels
# was 2.03 times the stack of all N + 3 blocks that check_cutoff bounds
# (cutoff 60, one level, a failed certificate).
MAX_DENSE_BYTES = 2**28

# Electronic components of every sector: A2u, i * A1u, E+, E-.
_SPIN = np.array([0, 0, 1, -1])

# Components kept in a block of parity 0 (a whole sector), +1 (the even half
# of sector 0) and -1 (the odd half; row -1). In a half, the E+ chain
# stands for (E+ + E-) / sqrt(2) or (E+ - E-) / sqrt(2).
_KEPT = np.array(
    [[True, True, True, True], [True, False, True, False], [False, True, True, False]]
)

# B- couples a component with S to one with S - 1 and raises l by one:
# (target, source) pairs; _fill gives 1/2 <target|B-|source> of each.
_COUPLED = ((0, 2), (1, 2), (3, 0), (3, 1))


class ConvergenceError(RuntimeError):
    """A diagonalization left a residual above SectorLevels.resolution.

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


def as_index(value, name: str) -> int:
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
        ValueError: negative cutoff, sector matrices larger than
            MAX_DENSE_BYTES, or more levels than states.
    """
    cutoff = as_index(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    # The two halves of sector 0 and the sectors J = 1 .. N + 1, each
    # padded to 2N + 2 states.
    needed = (cutoff + 3) * (2 * cutoff + 2) ** 2 * 8
    if needed > MAX_DENSE_BYTES:
        raise ValueError(
            f"cutoff {cutoff} needs {needed / 2**20:.0f} MiB of sector matrices, "
            f"beyond the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )
    if num_states is None:
        return
    if as_index(num_states, "num_states") < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    dimension = 2 * (cutoff + 1) * (cutoff + 2)
    if num_states > dimension:
        raise ValueError(f"num_states {num_states} exceeds matrix dimension {dimension}")


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each basis state and coupling sits in a stack of blocks.

    A block is a whole sector J (parity 0) or a half of sector 0 (parity
    +1 or -1), padded to 2N + 2 slots. Arrays of shape (blocks, size)
    describe slots; padding slots have component -1. ``observed`` holds,
    for each slot, what a level's squared amplitude there adds to its
    weights on the four components, its top-shell weight and the diagonal
    part of its R^2; ``moment_off`` the coupling of each slot to the next
    in R^2. ``coupling`` lists (block,
    row, column, pair, amplitude) with the target slot as row and the
    source slot as column, one entry per phonon matrix element; the
    transposed entry is implied.
    """

    j_values: np.ndarray
    parity: np.ndarray
    dims: np.ndarray
    component: np.ndarray
    shell: np.ndarray
    observed: np.ndarray
    moment_off: np.ndarray
    coupling: tuple[np.ndarray, ...]


def _layout(cutoff: int, j_values: np.ndarray, parity: np.ndarray | None = None) -> _Layout:
    """Layout of blocks J, each a whole sector unless parity gives it +1 or
    -1, which makes it the even or odd half of sector 0 (J must be 0)."""
    n = cutoff
    size = 2 * n + 2
    parity = np.zeros(len(j_values), dtype=int) if parity is None else parity
    chain = n // 2 + 1
    # Grid (block, component, n_r) of candidate states.
    l_val = j_values[:, None] - _SPIN[None, :]
    n_r = np.arange(chain)
    valid = (
        _KEPT[parity][:, :, None]
        & (np.abs(l_val)[:, :, None] <= n)
        & (n_r[None, None, :] <= (n - np.abs(l_val))[:, :, None] // 2)
    )
    flat_valid = valid.reshape(len(j_values), -1)
    position = (np.cumsum(flat_valid, axis=1) - 1).reshape(valid.shape)
    position[~valid] = -1
    dims = flat_valid.sum(axis=1)

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
    observed = np.zeros((len(j_values), size, 6))
    observed[sec, slot, comp] = 1.0
    observed[sec, slot, 4] = shell_slot >= n - 1
    # <(PXP)^2 + (PYP)^2>: s + 1 below the cutoff, N / 2 on the top shell,
    # and sqrt((n+ + 1)(n- + 1)) between n_r and n_r + 1 of one chain.
    observed[sec, slot, 5] = np.where(shell_slot < n, shell_slot + 1.0, 0.5 * n)
    moment_off = np.zeros((len(j_values), size))
    has_next = shell_slot + 2 <= n
    moment_off[sec[has_next], slot[has_next]] = np.sqrt(
        (n_plus[has_next] + 1.0) * (n_minus[has_next] + 1.0)
    )

    # (a+^dag + a-) from each source slot to the target component's chain
    # at l + 1: a+^dag adds one quantum, a- removes one. A half drops the
    # pairs whose target it does not keep; E- mirrors E+ there, which
    # scales the kept ones by sqrt(2).
    scale = np.where(parity == 0, 1.0, math.sqrt(2.0))
    parts = []
    for pair, (target, source) in enumerate(_COUPLED):
        src = comp == source
        s_sec, s_slot, s_plus, s_minus = sec[src], slot[src], n_plus[src], n_minus[src]
        kept = _KEPT[parity[s_sec], target]
        moves = (
            (kept & (s_plus + s_minus < n), s_plus + 1, s_minus, np.sqrt(s_plus + 1.0)),
            (kept & (s_minus >= 1), s_plus, s_minus - 1, np.sqrt(s_minus)),
        )
        for ok, t_plus, t_minus, amp in moves:
            t_slot = position[s_sec[ok], target, np.minimum(t_plus, t_minus)[ok]]
            amp = amp[ok] * scale[s_sec[ok]]
            parts.append((s_sec[ok], t_slot, s_slot[ok], np.full(ok.sum(), pair), amp))
    return _Layout(
        j_values=j_values,
        parity=parity,
        dims=dims,
        component=component,
        shell=shell,
        observed=observed,
        moment_off=moment_off,
        coupling=tuple(np.concatenate(column) for column in zip(*parts)),
    )


def _read_only(*records) -> None:
    """Make every array of the records' fields, tuples included, read-only."""
    for record in records:
        for value in vars(record).values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _FillPlan:
    """Where _fill writes each element of the blocks of one cutoff.

    ``layout`` is the _layout of the even and odd halves of sector 0 and the
    sectors J = 1 .. N + 1, in that order. Its first ``head`` blocks form an
    array of shape (head, 2N + 2, 2N + 2), the others one of shape (blocks -
    head, width, width), width being their largest dimension; both are views
    of one buffer. An entry is a state's diagonal element or a coupling, the
    couplings once as (row, column) and once transposed: ``positions`` is its
    flat place in the buffer and ``slots`` the (block, row) whose Gershgorin
    row sum it joins, in the order the sums are taken: diagonal, then row,
    then column entries. A state's diagonal element is hbar_omega *
    ``quanta`` plus W on its ``component``. ``padding`` holds the flat places
    of the padding diagonal.
    """

    layout: _Layout
    head: int
    width: int
    quanta: np.ndarray
    component: np.ndarray
    slots: np.ndarray
    positions: np.ndarray
    padding: np.ndarray


@functools.lru_cache(maxsize=2)
def _fill_plan(cutoff: int, head: int) -> _FillPlan:
    """_FillPlan of the head of `head` blocks at one cutoff.

    A fit calls lowest_levels many times at one cutoff, and the plan depends
    on the cutoff and the head alone, so the two most recent plans are kept:
    the head of the levels wanted, and every block after a failed
    certificate. Their arrays are read-only because every such call shares
    them.
    """
    blocks = np.arange(cutoff + 3)
    layout = _layout(cutoff, np.maximum(blocks - 1, 0), np.where(blocks < 2, 1 - 2 * blocks, 0))
    size = 2 * cutoff + 2
    width = int(layout.dims[head:].max(initial=0))
    stride = np.where(blocks < head, size, width)
    start = np.concatenate([[0], np.cumsum(stride * stride)[:-1]])
    real = layout.component >= 0
    block, slot = np.nonzero(real)
    sec, row, col, _, _ = layout.coupling
    pad_block, pad_slot = np.nonzero(~real & (np.arange(size) < stride[:, None]))
    plan = _FillPlan(
        layout=layout,
        head=head,
        width=width,
        quanta=layout.shell[block, slot] + 1.0,
        component=layout.component[block, slot],
        slots=np.concatenate([block * size + slot, sec * size + row, sec * size + col]),
        positions=np.concatenate(
            [
                start[block] + slot * (stride[block] + 1),
                start[sec] + row * stride[sec] + col,
                start[sec] + col * stride[sec] + row,
            ]
        ),
        padding=start[pad_block] + pad_slot * (stride[pad_block] + 1),
    )
    _read_only(layout, plan)
    return plan


@np.errstate(over="ignore")
def _fill(params: PjtParams, plan: _FillPlan) -> tuple[np.ndarray, np.ndarray, float]:
    """(head, certified, ceiling): the planned arrays of block matrices and
    their Gershgorin ceiling, which pads every diagonal above every level.

    An element or row sum beyond the float range makes the ceiling inf,
    without a warning.
    """
    size = plan.layout.component.shape[1]
    f_sum, f_diff = params.f_u + params.f_g, params.f_u - params.f_g
    # 1/2 <target|B-|source> of the _COUPLED pairs.
    elements = np.array([-f_sum, f_diff, -f_sum, -f_diff]) / math.sqrt(2.0)
    w_diag = np.array(
        [-params.lambda_corr, params.lambda_corr, -params.xi_corr, -params.xi_corr]
    )
    _, _, _, pair, amp = plan.layout.coupling
    values = elements[pair] * amp
    entries = np.concatenate(
        [params.hbar_omega * plan.quanta + w_diag[plan.component], values, values]
    )
    # Gershgorin: every eigenvalue is at most the largest absolute row sum.
    # That sum is positive (hbar_omega > 0), so twice it lies strictly above
    # every level and scales with H.
    ceiling = 2.0 * np.bincount(plan.slots, np.abs(entries)).max()
    split = plan.head * size * size
    rest = len(plan.layout.dims) - plan.head
    buffer = np.zeros(split + rest * plan.width * plan.width)
    buffer[plan.positions] = entries
    buffer[plan.padding] = ceiling
    return (
        buffer[:split].reshape(plan.head, size, size),
        buffer[split:].reshape(rest, plan.width, plan.width),
        ceiling,
    )


@dataclass(eq=False)
class SectorLevels:
    """Lowest levels of the full space, collected from the J sectors.

    The one record of a level: analysis.SpectrumReport carries it unchanged,
    and the spectrum CSV is written from its arrays.

    Attributes:
        energies: Ascending energies, meV. A level of J > 0 appears twice,
            once for J and once for its mirror -J.
        j: Signed J of each level; the mirror copy carries -J.
        parity: +1 or -1 under Y -> -Y for a level of J = 0, 0 otherwise.
        character: (k, 3) electronic weights (w_a2u, w_a1u, w_eu), the
            column order of ApesPoint.characters; w_eu = w_e+ + w_e-.
        r_squared: <X^2 + Y^2> of the truncated position operators.
        top_shell_weight: Weight in the top two Fock shells.
        residuals: ||H v - E v|| in the sector, meV, each at most resolution.
        resolution: Energies closer than this are equal to rounding, meV:
            8 size eps ||H||, several times the rounding error of an
            eigenvalue from eigh (about size eps ||H||; Golub & Van Loan,
            Matrix Computations, ch. 8), with ||H|| bounded by _fill's
            Gershgorin ceiling. It also bounds the residuals: for symmetric
            H, a unit v with ||H v - E v|| <= resolution has an eigenvalue
            within resolution of E. It scales with the five energies, so the
            unit of energy decides neither ties nor acceptance.
    """

    energies: np.ndarray
    j: np.ndarray
    parity: np.ndarray
    character: np.ndarray
    r_squared: np.ndarray
    top_shell_weight: np.ndarray
    residuals: np.ndarray
    resolution: float


def _all_above(stack: np.ndarray, level: float, ceiling: float, size: int) -> bool:
    """Whether every level of every matrix in a stack of sectors lies above level.

    The matrices are those of sectors of cutoff N, padded to a common
    dimension of at most size = 2N + 2, and ceiling is _fill's Gershgorin
    ceiling, finite and above |every level|. By Sylvester's law of inertia,
    H - s I has a Cholesky factorization exactly when H has no eigenvalue at
    or below s. In floating point, a factorization that succeeds is exact
    for H - s I + E, where ||E|| is typically about n * eps * ||H - s I||
    and at most about n**2 * eps * ||H - s I|| for dimension n <= size
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10); here
    ||H - s I|| is at most twice the ceiling. The shift s lies above level
    by several times that worst case at n = size, so a sector passes only if
    its levels, and eigh's values of them, lie strictly above level;
    skipping it cannot change which levels tie at level. A larger margin
    costs only speed, through more fallbacks. The stack is left shifted,
    since the caller discards it.
    """
    shift = level + 8.0 * size * size * np.finfo(float).eps * ceiling
    # Shifted in place, so that no copy of the stack sits beside the factor.
    stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1] -= shift
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def _observables(
    stack: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
    layout: _Layout,
    block: np.ndarray,
    col: np.ndarray,
    ceiling: float,
) -> np.ndarray:
    """(residual, w_a2u, w_a1u, w_e+, w_e-, top-shell weight, R^2) of the
    levels (block, col) of the stack, one row each.

    A block's wanted levels are its lowest columns, so the observables are
    formed for the lowest columns of the blocks up to the highest one used,
    and the wanted levels are gathered from them. The residuals are squared
    in units of ceiling, which bounds them, so that they neither overflow
    nor underflow.
    """
    used, width = block.max() + 1, col.max() + 1
    cols = vectors[:used, :, :width]
    residual = stack[:used] @ cols
    residual -= cols * values[:used, None, :width]
    residual /= ceiling
    residual *= residual
    residuals = ceiling * np.sqrt(residual.sum(axis=1))
    # Freed before the weights, so that at most two arrays of the size of
    # cols are live beside the stack and its eigenvectors.
    del residual
    observed = np.matmul((cols * cols).transpose(0, 2, 1), layout.observed[:used])
    cols = cols[:, :-1] * cols[:, 1:]
    cols *= layout.moment_off[:used, :-1, None]
    observed[:, :, 5] += 2.0 * cols.sum(axis=1)
    return np.column_stack([residuals[block, col], observed[block, col]])


def lowest_levels(params: PjtParams, cutoff: int, num_states: int) -> SectorLevels:
    """Lowest num_states levels, diagonalizing only the sectors that can hold one.

    The two halves of sector 0 and the sectors J = 1 .. num_states // 2
    hold at least num_states levels counting mirrors, so the num_states-th
    lowest of their levels, U, is an upper bound on the wanted ones; they go
    through one batched eigh, padded to 2N + 2. The remaining sectors go
    through one batched Cholesky factorization of H_J - (U + margin),
    padded only to the largest of their dimensions: by Sylvester's law of
    inertia it succeeds only if every level of sector J lies above U +
    margin, and those sectors are then skipped. If it fails, the head
    stack is freed and the levels are taken again with every block as the
    head: one batched eigh of all N + 3 blocks, padded to 2N + 2. So every
    eigh sees the matrices a diagonalization of every sector would, and
    either way the levels, and the choice among levels tied at U, are
    those of such a diagonalization. The levels are read off the padded
    eigenvalues, since each padding slot sits at _fill's ceiling, above
    every level. A level is accepted only if its residual is at most
    SectorLevels.resolution.

    Args:
        params: Model parameters.
        cutoff: Fock cutoff N.
        num_states: Levels wanted, 1 .. 2 (N + 1)(N + 2).

    Returns:
        SectorLevels in ascending energy order.

    Raises:
        ValueError: invalid request, a cutoff beyond the memory limit, or
            matrix elements beyond the float range.
        ConvergenceError: a residual exceeds the resolution or is not finite.
    """
    check_cutoff(cutoff, num_states)
    # Python ints, so that a numpy integer neither overflows in _fill nor
    # keys the plan cache.
    cutoff, num_states = as_index(cutoff, "cutoff"), as_index(num_states, "num_states")
    size = 2 * cutoff + 2
    for head in (min(cutoff + 3, 2 + num_states // 2), cutoff + 3):
        plan = _fill_plan(cutoff, head)
        stack, certified, ceiling = _fill(params, plan)
        if not np.isfinite(ceiling):
            raise ValueError(f"matrix elements at cutoff {cutoff} are beyond the float range")
        values, vectors = np.linalg.eigh(stack)
        # The head's eigenvalues, then those of J > 0 again for the mirrors
        # -J; stable ties keep that order.
        flat = np.concatenate([values, values[2:]]).ravel()
        order = np.argsort(flat, kind="stable")[:num_states]
        energies = flat[order]
        row, col = np.divmod(order, size)
        mirror = row >= head
        block = row - mirror * (head - 2)
        j = np.where(mirror, -1, 1) * plan.layout.j_values[block]
        if not len(certified) or _all_above(certified, energies[-1], ceiling, size):
            break
        # Freed before every block is filled, so that only one stack and its
        # eigenvectors are live at a time.
        del stack, certified, values, vectors

    table = _observables(stack, values, vectors, plan.layout, block, col, ceiling)
    residuals = table[:, 0]
    resolution = 8.0 * size * np.finfo(float).eps * ceiling
    if not np.all(residuals <= resolution):
        raise ConvergenceError(
            f"sector residuals up to {residuals.max():.3e} meV exceed "
            f"the resolution {resolution:.3e} meV",
            energies=energies,
            residuals=residuals,
        )
    return SectorLevels(
        energies=energies,
        j=j,
        parity=plan.layout.parity[block],
        character=np.column_stack([table[:, 1], table[:, 2], table[:, 3] + table[:, 4]]),
        r_squared=table[:, 6],
        top_shell_weight=table[:, 5],
        residuals=residuals,
        resolution=resolution,
    )
