"""Two-mode oscillator basis and ladder operator matrices."""

import numpy as np
import pytest

from reference import build_basis, number_operator, position_operator


def test_state_counts():
    assert build_basis(0).size == 1
    assert build_basis(15).size == 136
    assert build_basis(50).size == 1326


def test_canonical_ordering():
    basis = build_basis(2)
    assert basis.states == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_index_inverts_enumeration():
    basis = build_basis(7)
    assert len(basis.index) == basis.size
    for position, state in enumerate(basis.states):
        assert basis.index[state] == position


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        build_basis(-1)


def test_position_matrix_elements():
    basis = build_basis(2)
    x = position_operator(basis, "X").toarray()
    y = position_operator(basis, "Y").toarray()
    i00 = basis.index[(0, 0)]
    i10 = basis.index[(1, 0)]
    i20 = basis.index[(2, 0)]
    i01 = basis.index[(0, 1)]
    assert x[i10, i00] == pytest.approx(1.0 / np.sqrt(2.0))
    assert x[i20, i10] == pytest.approx(1.0)
    assert y[i01, i00] == pytest.approx(1.0 / np.sqrt(2.0))
    # X does not move quanta between the two modes
    assert x[i01, i00] == 0.0
    assert y[i10, i00] == 0.0


def test_position_symmetric_with_zero_diagonal():
    for cutoff in range(9):
        basis = build_basis(cutoff)
        for mode in ("X", "Y"):
            op = position_operator(basis, mode)
            assert (op != op.T).nnz == 0
            assert np.all(op.diagonal() == 0.0)


def test_truncation_drops_raising_out_of_basis():
    basis = build_basis(3)
    x = position_operator(basis, "X").toarray()
    col = basis.index[(3, 0)]
    # the top-shell state couples only downward; (4, 0) does not exist
    assert np.count_nonzero(x[:, col]) == 1
    assert x[basis.index[(2, 0)], col] == pytest.approx(np.sqrt(1.5))


def test_mode_name_validation():
    basis = build_basis(1)
    with pytest.raises(ValueError):
        position_operator(basis, "Z")


def test_number_operator_diagonal():
    basis = build_basis(4)
    op = number_operator(basis)
    expected = np.array([n + m + 1.0 for (n, m) in basis.states])
    assert op.nnz == basis.size
    assert np.array_equal(op.diagonal(), expected)


def test_number_trace_smallest_bases():
    assert number_operator(build_basis(0)).diagonal().sum() == 1.0
    assert number_operator(build_basis(1)).diagonal().sum() == 5.0


def test_commutator_confined_to_top_shell():
    # X and Y act on independent modes, so they commute before truncation.
    # Cutting the basis at a fixed total quantum number breaks that only on
    # matrix elements where both states sit in the outermost shell.
    for cutoff in (1, 2, 5, 8):
        basis = build_basis(cutoff)
        x = position_operator(basis, "X")
        y = position_operator(basis, "Y")
        commutator = (x @ y - y @ x).toarray()
        shell = np.array([n + m for (n, m) in basis.states])
        inner = (shell[:, None] < cutoff) | (shell[None, :] < cutoff)
        assert np.all(commutator[inner] == 0.0)
        assert np.abs(commutator).max() > 0.1


def test_second_moment_matches_number_below_top_shell():
    basis = build_basis(6)
    x = position_operator(basis, "X")
    y = position_operator(basis, "Y")
    second_moment = (x @ x + y @ y).diagonal()
    occupancy = number_operator(basis).diagonal()
    shell = np.array([n + m for (n, m) in basis.states])
    inner = shell < basis.cutoff
    assert np.allclose(second_moment[inner], occupancy[inner], atol=1e-12)
