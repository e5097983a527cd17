"""Truncated two-mode harmonic-oscillator basis and ladder-operator matrices.

The vibrational configuration space is spanned by number states |n, m> of the
two components of a doubly degenerate mode, kept up to a total-quanta cutoff
n + m <= N. States are ordered by ascending shell s = n + m, ties by ascending
m, so states of equal unperturbed energy sit next to each other. The
operator matrices are scipy.sparse matrices for the full-space reference;
scipy is imported when one is first built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["FockBasis", "build_basis", "position_operator", "number_operator"]


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
    from scipy import sparse

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
    from scipy import sparse

    diag = np.array([n + m + 1.0 for (n, m) in basis.states])
    return sparse.diags(diag, 0, format="csr")
