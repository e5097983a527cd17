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
parity. The lowest k levels need only the blocks that hold one. The even
half and J = 1 .. (k - 1) // 2, the head, hold at least k levels when the
even half gives its lowest two and each sector its lowest pair +-J, and
more sectors join it when they hold fewer; the head is diagonalized padded
to 2N + 2. Every other block, the odd half included, is tested in one
batch with a Cholesky test against the k-th level. A block that passes
stays out for good, because the k-th level only falls. The first block
that fails, in the order J ascending and the odd half last, joins alone,
and the other failed blocks are tested again together. No block is
diagonalized twice, and only the eigenvalues of the blocks that join and
the observables of their lowest levels outlive the round that
diagonalizes them.

Within a component the states are ordered by n_r, which makes the second
moment of the truncated position operators, <(PXP)^2 + (PYP)^2>, a
tridiagonal matrix in each sector; R comes from it without any position
operator.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .hamiltonian import PjtParams

__all__ = [
    "MAX_DENSE_BYTES",
    "ConvergenceError",
    "SectorLevels",
    "check_cutoff",
    "lowest_levels",
]

# Largest dense array a route may allocate, and most an apes scan may hold
# before its first row, in bytes; check_bytes refuses beyond it. At cutoff 60
# the tracemalloc peak of lowest_levels was 1.03 and 0.90 times the stack of
# all N + 3 blocks that check_cutoff bounds for 1 and 8 decoupled levels, in
# two rounds each, and 2.14 times for every level.
MAX_DENSE_BYTES = 2**28

# Machine epsilon of float64, for the certificate margin and the resolution.
_EPS = float(np.finfo(float).eps)

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


def check_bytes(needed: int, request: str, contents: str) -> None:
    """Refuse a request needing more than MAX_DENSE_BYTES; the MiB it names
    are rounded up, so a refused request never reads as within the limit."""
    if needed > MAX_DENSE_BYTES:
        raise ValueError(
            f"{request} needs {-(-needed // 2**20)} MiB of {contents}, "
            f"beyond the {MAX_DENSE_BYTES // 2**20} MiB limit"
        )


def check_cutoff(cutoff: int, num_states: int) -> tuple[int, int]:
    """Reject a cutoff, or a level count, before anything is allocated.

    Args:
        cutoff: Fock cutoff N, >= 0.
        num_states: Levels wanted, at most the full dimension
            2 (N + 1)(N + 2).

    Returns:
        (cutoff, num_states) as Python ints, so that a numpy integer does
        not overflow the sizes computed from them.

    Raises:
        TypeError: a cutoff or level count that is not an integer.
        ValueError: negative cutoff, sector matrices that check_bytes
            refuses, or more levels than states.
    """
    cutoff = as_index(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    # The two halves of sector 0 and the sectors J = 1 .. N + 1, each
    # padded to 2N + 2 states.
    needed = (cutoff + 3) * (2 * cutoff + 2) ** 2 * 8
    check_bytes(needed, f"cutoff {cutoff}", "sector matrices")
    num_states = as_index(num_states, "num_states")
    if num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    dimension = 2 * (cutoff + 1) * (cutoff + 2)
    if num_states > dimension:
        raise ValueError(f"num_states {num_states} exceeds matrix dimension {dimension}")
    return cutoff, num_states


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each basis state and matrix element sits in a stack of blocks.

    A block is a whole sector J (parity 0) or a half of sector 0 (parity
    +1 or -1), padded to 2N + 2 slots; arrays of shape (blocks, size)
    describe slots. Each field, with what reads it:

    - ``j_values``, ``parity``, ``dims``: each block's J, parity and number
      of states; lowest_levels.
    - ``component``: each slot's electronic component, -1 on the padding;
      _elements, where it also marks the padding.
    - ``quanta``: each slot's Fock shell n+ + n- plus 1, and 0 on the
      padding; _elements.
    - ``observed``, of shape (blocks, 2 size - 1, 5): what a level's squared
      amplitude at each slot adds to its weights on A2u, A1u and Eu (E+ and
      E- pooled), its top-shell weight and its R^2, then what the product of
      its amplitudes at each slot but the last and at the next adds to its
      R^2; _observables.
    - ``coupling``: (block, row, column, pair, amplitude) of each phonon
      matrix element, target slot as row, sorted stably by block; the
      transposed element is implied. _elements and _fill.
    - ``start``: block b holds couplings start[b] .. start[b + 1]; _fill.
    - ``slots``: block * size + row, and + column, of each coupling;
      _elements adds to each slot's Gershgorin row sum its diagonal, then
      the couplings with it as row, then as column, in this order.
    - ``levels``: levels[b] counts the levels of blocks 0 .. b, mirrors -J
      of J > 0 included; lowest_levels.
    """

    j_values: np.ndarray
    parity: np.ndarray
    dims: np.ndarray
    component: np.ndarray
    quanta: np.ndarray
    observed: np.ndarray
    coupling: tuple[np.ndarray, ...]
    start: np.ndarray
    slots: np.ndarray
    levels: np.ndarray


def _layout(cutoff: int, j_values: np.ndarray, parity: np.ndarray) -> _Layout:
    """Layout of blocks J, each a whole sector where parity is 0, and the
    even or odd half of sector 0 where it is +1 or -1 (J must be 0)."""
    n = cutoff
    size = 2 * n + 2
    chain = n // 2 + 1
    # Grid (block, component, n_r) of candidate states; where |l| > N the
    # floor (N - |l|) // 2 is negative, so no n_r is kept.
    l_val = j_values[:, None] - _SPIN[None, :]
    n_r = np.arange(chain)
    valid = (
        _KEPT[parity][:, :, None]
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
    quanta = np.zeros((len(j_values), size))
    quanta[sec, slot] = shell_slot + 1.0
    observed = np.zeros((len(j_values), 2 * size - 1, 5))
    observed[sec, slot, np.minimum(comp, 2)] = 1.0
    observed[sec, slot, 3] = shell_slot >= n - 1
    # <(PXP)^2 + (PYP)^2>: s + 1 below the cutoff, N / 2 on the top shell,
    # and twice sqrt((n+ + 1)(n- + 1)) on the product of n_r and n_r + 1 of
    # one chain, which sit in neighbouring slots.
    observed[sec, slot, 4] = np.where(shell_slot < n, shell_slot + 1.0, 0.5 * n)
    has_next = shell_slot + 2 <= n
    observed[sec[has_next], size + slot[has_next], 4] = 2.0 * np.sqrt(
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
    coupling = tuple(np.concatenate(column) for column in zip(*parts))
    order = np.argsort(coupling[0], kind="stable")
    coupling = tuple(column[order] for column in coupling)
    block, row, col = coupling[:3]
    return _Layout(
        j_values=j_values,
        parity=parity,
        dims=dims,
        component=component,
        quanta=quanta,
        observed=observed,
        coupling=coupling,
        start=block.searchsorted(np.arange(len(j_values) + 1)),
        slots=block * size + np.stack([row, col]),
        levels=np.cumsum(np.where(j_values > 0, 2, 1) * dims),
    )


def _read_only(record) -> None:
    """Make every array of the record's fields, tuples included, read-only."""
    for value in vars(record).values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)


@functools.lru_cache(maxsize=4)
def _blocks(cutoff: int) -> _Layout:
    """Read-only _Layout of the blocks of one cutoff in the order
    lowest_levels takes them: the even half of sector 0, the sectors J = 1
    .. N + 1, then the odd half.

    A fit calls lowest_levels many times at one cutoff, and a cutoff ladder
    at a few, so the four most recent cutoffs are kept. The arrays are
    read-only because every such call shares them.
    """
    j_values = np.append(np.arange(cutoff + 2), 0)
    parity = np.zeros(cutoff + 3, dtype=int)
    parity[[0, -1]] = 1, -1
    layout = _layout(cutoff, j_values, parity)
    _read_only(layout)
    return layout


@np.errstate(over="ignore")
def _elements(params: PjtParams, layout: _Layout) -> tuple[np.ndarray, np.ndarray, float]:
    """(diagonal, couplings, ceiling) of a _Layout: the padded diagonal of
    every block, the value of each coupling, and the Gershgorin ceiling of
    every block, which the diagonal holds on the padding, above every level.

    An element or row sum beyond the float range makes the ceiling inf,
    without a warning.
    """
    f_sum, f_diff = params.f_u + params.f_g, params.f_u - params.f_g
    # 1/2 <target|B-|source> of the _COUPLED pairs.
    elements = np.array([-f_sum, f_diff, -f_sum, -f_diff]) / math.sqrt(2.0)
    # W of each component, and 0 on the padding, component -1.
    w_diag = np.array(
        [-params.lambda_corr, params.lambda_corr, -params.xi_corr, -params.xi_corr, 0.0]
    )
    diagonal = params.hbar_omega * layout.quanta + w_diag[layout.component]
    _, _, _, pair, amp = layout.coupling
    couplings = elements[pair] * amp
    # Gershgorin: every eigenvalue is at most the largest absolute row sum.
    # That sum is positive (hbar_omega > 0), so twice it lies strictly above
    # every level and scales with H.
    sums = np.abs(diagonal).ravel()
    magnitudes = np.abs(couplings)
    np.add.at(sums, layout.slots[0], magnitudes)
    np.add.at(sums, layout.slots[1], magnitudes)
    ceiling = 2.0 * sums.max()
    diagonal[layout.component < 0] = ceiling
    return diagonal, couplings, ceiling


def _fill(
    diagonal: np.ndarray, couplings: np.ndarray, layout: _Layout, blocks: range | list, width: int
) -> np.ndarray:
    """The blocks of a _Layout, ascending, padded to width, at least their
    largest dimension, from the couplings of _elements and its diagonal,
    or that diagonal minus a shift s for a certificate; the padding keeps
    the diagonal's value there, the ceiling, or the ceiling minus s.
    """
    count = len(blocks)
    stack = np.zeros((count, width, width))
    # One slice of the diagonal and of the sorted couplings per run of
    # consecutive blocks, so that no index array spans every block.
    ends = [at for at in range(1, count) if blocks[at] != blocks[at - 1] + 1] + [count]
    block, row, col, _, _ = layout.coupling
    for begin, end in zip([0, *ends], ends):
        first, last = blocks[begin], blocks[end - 1] + 1
        run = stack[begin:end].reshape(end - begin, width * width)
        run[:, :: width + 1] = diagonal[first:last, :width]
        here = slice(layout.start[first], layout.start[last])
        at, rows, cols = block[here] - (first - begin), row[here], col[here]
        stack[at, rows, cols] = couplings[here]
        stack[at, cols, rows] = couplings[here]
    return stack


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
            Matrix Computations, ch. 8), with ||H|| bounded by _elements'
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


@np.errstate(invalid="ignore")
def _below(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack has an eigenvalue at or below 0, one
    bool per matrix. The stack is factored in place: each matrix that passes
    is left holding its lower Cholesky factor, and each that fails holds NaN.
    lowest_levels fills it at a shift s, as H - s I, so a verdict says
    whether H has a level at or below s.

    By Sylvester's law of inertia, H - s I has a Cholesky factorization
    exactly when H has no eigenvalue at or below s. lowest_levels certifies
    sectors of cutoff N, padded to a common dimension of at most size = 2N +
    2, at s = U + 8 size^2 eps ceiling, with ceiling _elements' Gershgorin
    ceiling, finite and above |every level|; the padding of H - s I holds
    the ceiling minus s. In floating point, a factorization that succeeds
    is exact for H - s I + E, where ||E|| is typically about n * eps * ||H -
    s I|| and at most about n**2 * eps * ||H - s I|| for dimension n <= size
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10); there
    ||H - s I|| is at most twice the ceiling. So s lies above U by several
    times that worst case at n = size, a sector passes only if its levels,
    and eigh's values of them, lie strictly above U, and skipping it cannot
    change which levels tie at U. A larger margin costs only speed, through
    more rounds.
    """
    # The one use of numpy's private _umath_linalg: np.linalg.cholesky's
    # gufunc fills each matrix it cannot factor with NaN and factors the rest.
    # Written over its input, it makes no second stack.
    return np.isnan(_umath_linalg.cholesky_lo(stack, signature="d->d", out=stack)[:, 0, 0])


def _observables(
    out: np.ndarray,
    stack: np.ndarray,
    values: np.ndarray,
    vectors: np.ndarray,
    observed: np.ndarray,
    ceiling: float,
) -> None:
    """Write (residual, w_a2u, w_a1u, w_eu, top-shell weight, R^2) of the
    lowest out.shape[1] columns of every block of a stack into out, of shape
    (len(stack), width, 6). Values and vectors are the stack's eigh, and
    observed the _Layout.observed rows of its blocks.

    The residuals are squared in units of ceiling, which bounds them, so
    that they neither overflow nor underflow.
    """
    size, width = stack.shape[1], out.shape[1]
    # Blocks per pass, so that each temporary of the size of cols holds at
    # most 1/32 of the stack of all N + 3 = size / 2 + 2 blocks that
    # check_cutoff bounds, or a single block's columns. One block's columns
    # exceed that budget only below cutoff 29, where the stack is under 1 MiB.
    step = max(1, (size // 2 + 2) * size // (32 * width))
    for low in range(0, len(stack), step):
        here = slice(low, low + step)
        cols = vectors[here, :, :width]
        # v E first and H v - v E written over it, so that no ufunc buffer
        # sits beside the two as one would beside an in-place H v -= v E.
        residual = cols * values[here, None, :width]
        np.subtract(stack[here] @ cols, residual, out=residual)
        residual /= ceiling
        residual *= residual
        out[here, :, 0] = ceiling * np.sqrt(residual.sum(axis=1))
        # Each temporary is freed before the next is formed, so that at most
        # two arrays of the size of cols are live beside the stack and its
        # eigenvectors.
        del residual
        # The squared amplitudes, then the products of neighbours, weighed by
        # the layout.
        products = np.empty((cols.shape[0], 2 * size - 1, cols.shape[2]))
        np.multiply(cols, cols, out=products[:, :size])
        np.multiply(cols[:, :-1], cols[:, 1:], out=products[:, size:])
        out[here, :, 1:] = np.matmul(products.transpose(0, 2, 1), observed[here])
        del products


def lowest_levels(params: PjtParams, cutoff: int, num_states: int) -> SectorLevels:
    """Lowest num_states levels, diagonalizing only the sectors that hold one.

    The blocks are diagonalized and certified in the rounds the module
    docstring describes: none is diagonalized twice, or certified again
    once it passes. Every block that is skipped has passed a certificate
    that it holds no level at or below the num_states-th. Each eigh sees
    the padded matrices of a diagonalization of every block in the order
    even half, odd half, J = 1 .. N + 1, then the mirrors -J, so the levels,
    and the choice among levels tied at the num_states-th, are that
    diagonalization's. A level is accepted only if its residual is at most
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
    cutoff, num_states = check_cutoff(cutoff, num_states)
    size = 2 * cutoff + 2
    layout = _blocks(cutoff)
    diagonal, couplings, ceiling = _elements(params, layout)
    if not math.isfinite(ceiling):
        raise ValueError(f"matrix elements at cutoff {cutoff} are beyond the float range")
    total = len(layout.levels)
    odd = total - 1
    # The even half and J = 1 .. (k - 1) // 2, and more blocks only if these
    # hold fewer than k levels; the odd half only if the sectors do.
    head = max(min(odd, (num_states + 1) // 2), int(layout.levels.searchsorted(num_states)) + 1)
    # The eigenvalues of every block and the observables of its lowest
    # columns, filled as blocks join; nothing else outlives a round.
    values = np.empty((total, size))
    table = np.zeros((total, min(num_states, size), 6))
    # The certificates' margin above U; see _below.
    margin = 8.0 * size * size * _EPS * ceiling
    # The blocks that join in a round, those that have joined, and those
    # still out that no certificate has passed, each ascending. A round joins
    # the head, or one block.
    joining, joined, pending = range(head), [], range(head, total)
    while joining:
        stack = _fill(diagonal, couplings, layout, joining, size)
        here = slice(joining[0], joining[-1] + 1)
        values[here], vectors = np.linalg.eigh(stack)
        joined += joining
        # The blocks that have joined, in the order of a diagonalization of
        # every sector: the even half, the odd half once it has joined, J = 1
        # .., then J > 0 again for the mirrors -J. Stable ties keep that order.
        sectors = joined[1:-1] if joined[-1] == odd else joined[1:]
        rows = np.array([0, odd][: len(joined) - len(sectors)] + sectors + sectors)
        flat = values[rows].ravel()
        # A copy of the k lowest, so that the whole sort and flat are freed
        # before the observables are formed.
        order = np.argsort(flat, kind="stable")[:num_states].copy()
        energies = flat[order]
        del flat
        # The columns up to the highest one read now, in any block: a later
        # round, whose U is no higher and which keeps the order of ties at U,
        # reads no other column of these blocks.
        out = table[here, : (order % size).max() + 1]
        _observables(out, stack, values[here], vectors, layout.observed[here], ceiling)
        # Freed before the next blocks are filled.
        del stack, vectors
        if pending:
            shifted = diagonal - (energies[-1] + margin)
            certified = _fill(shifted, couplings, layout, pending, layout.dims[pending].max())
            pending = list(itertools.compress(pending, _below(certified)))
        joining, pending = pending[:1], pending[1:]

    row, col = np.divmod(order, size)
    block = rows[row]
    table = table[block, col]
    residuals = table[:, 0]
    resolution = 8.0 * size * _EPS * ceiling
    if not (residuals <= resolution).all():
        raise ConvergenceError(
            f"sector residuals up to {residuals.max():.3e} meV exceed "
            f"the resolution {resolution:.3e} meV",
            energies=energies,
            residuals=residuals,
        )
    return SectorLevels(
        energies=energies,
        j=np.where(row < len(rows) - len(sectors), 1, -1) * layout.j_values[block],
        parity=layout.parity[block],
        character=table[:, 1:4],
        r_squared=table[:, 5],
        top_shell_weight=table[:, 4],
        residuals=residuals,
        resolution=resolution,
    )
