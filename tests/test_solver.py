"""Dense product-space solve plus the cutoff convergence ladder."""

import tracemalloc

import numpy as np
import pytest

from pjtdiag import (
    PRESETS,
    PjtParams,
    converge_cutoff,
    delta_splitting,
)
from pjtdiag.sectors import lowest_levels
from reference import assemble, build_basis, solve

SIV = PRESETS["SiV"].params


def siv_hamiltonian(cutoff=15):
    return assemble(SIV, build_basis(cutoff))


def test_request_validation():
    h = assemble(SIV, build_basis(1))
    with pytest.raises(ValueError, match="num_states"):
        solve(h, 0)
    with pytest.raises(ValueError, match="num_states"):
        solve(h, 13)


def test_invalid_request_refused_before_any_cutoff():
    # Refused once, so no converge_cutoff row carries it.
    with pytest.raises(ValueError, match="num_states must be >= 1"):
        converge_cutoff(SIV, (1, 2), num_states=0)


def test_decoupled_ground_energy():
    params = PjtParams(hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=0.0)
    h = assemble(params, build_basis(15))
    result = solve(h, 1)
    assert result.energies[0] == pytest.approx(75.9, abs=1e-10)


def test_siv_low_level_structure():
    result = solve(siv_hamiltonian(), 3)
    energies = result.energies
    # nondegenerate ground state, then a degenerate pair one gap above
    assert energies[1] - energies[0] == pytest.approx(6.664543, abs=1e-4)
    assert energies[2] - energies[1] < 1e-6


def test_doublet_above_ground_for_every_preset():
    for preset in PRESETS.values():
        h = assemble(preset.params, build_basis(15))
        energies = solve(h, 3).energies
        assert energies[1] - energies[0] > 1.0, preset.name
        assert energies[2] - energies[1] < 1e-6, preset.name


def test_dense_matches_iterative():
    # The product space and the J sectors are independent routes.
    dense = solve(siv_hamiltonian(), 10)
    sectors = lowest_levels(SIV, 15, 10)
    assert np.abs(dense.energies - sectors.energies).max() < 1e-8


def test_iterative_matches_full_diagonalization():
    # The sector route against every eigenvalue of the product-space matrix.
    rng = np.random.default_rng(7)
    params = PjtParams(
        hbar_omega=float(rng.uniform(40.0, 110.0)),
        lambda_corr=float(rng.uniform(0.0, 120.0)),
        xi_corr=float(rng.uniform(0.0, 80.0)),
        f_g=float(rng.uniform(10.0, 120.0)),
        f_u=float(rng.uniform(10.0, 120.0)),
    )
    h = assemble(params, build_basis(5))
    full = np.linalg.eigvalsh(h.matrix)
    assert np.abs(lowest_levels(params, 5, 5).energies - full[:5]).max() < 1e-8
    assert np.abs(solve(h, 5).energies - full[:5]).max() < 1e-8


def test_result_invariants():
    result = solve(siv_hamiltonian(), 6)
    assert np.all(np.diff(result.energies) >= 0.0)
    gram = result.vectors.T @ result.vectors
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert result.residuals.shape == (6,)
    assert np.all(result.residuals <= 1e-8)


def test_converge_cutoff_ground_energy_monotone():
    study = converge_cutoff(SIV, (5, 10, 15, 20), 3)
    ground = [row.energies[0] for row in study.rows]
    assert all(later < earlier for earlier, later in zip(ground, ground[1:]))
    assert [row.cutoff for row in study.rows] == [5, 10, 15, 20]
    assert [row.delta for row in study.rows] == [
        delta_splitting(SIV, cutoff, num_states=3) for cutoff in (5, 10, 15, 20)
    ]


def test_converge_cutoff_reports_convergence():
    study = converge_cutoff(SIV, (15, 20, 25), 1)
    assert study.converged
    coarse = converge_cutoff(SIV, (1, 3), 1)
    assert not coarse.converged


def test_converge_cutoff_runs_beyond_the_dense_limit():
    # A dense copy of the cutoff-53 matrix alone would exceed MAX_DENSE_BYTES.
    tracemalloc.start()
    try:
        study = converge_cutoff(SIV, (53, 60), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.error for row in study.rows] == [None, None]
    assert study.rows[1].energies[0] <= study.rows[0].energies[0]
    assert peak < 64 * 2**20


def test_converge_cutoff_validation():
    with pytest.raises(ValueError):
        converge_cutoff(SIV, (15,), 2)
    with pytest.raises(ValueError):
        converge_cutoff(SIV, (15, 10), 2)


def test_converge_cutoff_error_capture():
    # cutoff 0 holds only four states, so eight cannot be computed there
    study = converge_cutoff(SIV, (0, 5), 8)
    assert study.rows[0].error == "num_states 8 exceeds matrix dimension 4"
    assert study.rows[0].energies is None
    assert np.isnan(study.rows[0].delta)
    assert study.rows[1].error is None
    assert study.rows[1].energies.shape == (8,)
    assert study.rows[1].delta == delta_splitting(SIV, 5)
    assert not study.converged


def test_converge_cutoff_keeps_energies_when_delta_is_undefined():
    # A degenerate pair at the bottom leaves delta undefined at every cutoff,
    # but the ground energies still decide convergence.
    inverted = PjtParams(hbar_omega=75.0, lambda_corr=0.0, xi_corr=45.0, f_g=10.0, f_u=10.0)
    study = converge_cutoff(inverted, (6, 8), 3)
    for row in study.rows:
        assert row.error.startswith("lowest level is not a nondegenerate A2u-type state")
        assert row.energies.shape == (3,)
        assert np.isnan(row.delta)
    assert study.converged


def test_dense_route_refuses_oversized_matrix_before_allocating():
    # Dimension 20604 at cutoff 100; the dense matrix would take 3.4 GB.
    basis = build_basis(100)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MiB"):
            assemble(SIV, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
