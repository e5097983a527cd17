"""State characters, distortion, level labels, and delta."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjtdiag import (
    PRESETS,
    PjtParams,
    StateOrderingError,
    TruncationWarning,
    converge_cutoff,
    spectrum_report,
)
from reference import (
    SYMMETRY_TRANSFORM,
    build_basis,
    classify_levels,
    distortion_expectation,
    electronic_character,
)

SIV = PRESETS["SiV"]


def symmetry_state(basis, row, phonon):
    """Unit vector carrying one electronic symmetry row on one Fock state."""
    vector = np.zeros(4 * basis.size)
    for determinant in range(4):
        amplitude = SYMMETRY_TRANSFORM[row, determinant]
        vector[determinant * basis.size + basis.index[phonon]] = amplitude
    return vector


def test_character_of_pure_symmetry_states():
    basis = build_basis(3)
    for row in range(4):
        weights = electronic_character(symmetry_state(basis, row, (0, 0)), basis)
        expected = np.zeros(4)
        expected[row] = 1.0
        assert np.allclose(weights, expected, atol=1e-14)


def test_character_rejects_wrong_shape():
    basis = build_basis(2)
    with pytest.raises(ValueError, match="shape"):
        electronic_character(np.ones(7), basis)


def test_character_rejects_unnormalized():
    basis = build_basis(2)
    vector = np.zeros(4 * basis.size)
    vector[0] = 0.5
    with pytest.raises(ValueError, match="normalized"):
        electronic_character(vector, basis)


def test_character_weights_form_a_distribution():
    rng = np.random.default_rng(11)
    basis = build_basis(4)
    for _ in range(25):
        vector = rng.standard_normal(4 * basis.size)
        vector /= np.linalg.norm(vector)
        weights = electronic_character(vector, basis)
        assert weights.shape == (4,)
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_vacuum_distortion_is_unity():
    basis = build_basis(5)
    vector = symmetry_state(basis, 0, (0, 0))
    assert distortion_expectation(vector, basis) == pytest.approx(1.0, abs=1e-12)


def test_siv_ground_character_window(siv_solution):
    basis, result = siv_solution
    weights = electronic_character(result.vectors[:, 0], basis)
    assert 0.45 <= weights[0] <= 0.60
    assert weights[1] < 1e-6
    assert 0.40 <= weights[2] + weights[3] <= 0.55


def test_siv_doublet_pooled_character(siv_solution):
    basis, result = siv_solution
    pooled = 0.5 * (
        electronic_character(result.vectors[:, 1], basis)
        + electronic_character(result.vectors[:, 2], basis)
    )
    assert pooled[2] + pooled[3] > 0.45
    assert pooled.sum() == pytest.approx(1.0, abs=1e-10)


def test_siv_ground_distortion_near_classical_radius(siv_solution):
    basis, result = siv_solution
    r = distortion_expectation(result.vectors[:, 0], basis)
    assert r == pytest.approx(2.721805, abs=1e-4)
    classical = (SIV.f_g + SIV.f_u) / SIV.hbar_omega
    assert abs(r - classical) / classical < 0.25


def test_degenerate_pair_distortion_identical(siv_solution):
    basis, result = siv_solution
    r1 = distortion_expectation(result.vectors[:, 1], basis)
    r2 = distortion_expectation(result.vectors[:, 2], basis)
    assert abs(r1 - r2) < 1e-6


def test_classify_levels_siv(siv_solution):
    basis, result = siv_solution
    levels = classify_levels(result.energies, result.vectors, basis)
    assert [level.j for level in levels] == [0, 1, 1, 2, 2, 3, 3, 0]
    assert [level.label for level in levels] == (
        ["A2u"] + ["Eu"] * 4 + ["A1u+A2u"] * 2 + ["A2u"]
    )
    for level in levels:
        assert level.j_squared == pytest.approx(level.j**2, abs=1e-9)
        assert level.character.sum() == pytest.approx(1.0, abs=1e-10)
    assert [level.reflection for level in levels if level.j == 0] == pytest.approx(
        [1.0, 1.0], abs=1e-9
    )
    assert [level.energy for level in levels] == result.energies.tolist()


def test_classify_levels_without_distortion(siv_solution):
    basis, result = siv_solution
    levels = classify_levels(
        result.energies, result.vectors, basis, compute_r=False
    )
    assert all(np.isnan(level.distortion_r) for level in levels)


@pytest.mark.parametrize(
    "params",
    [
        # Without coupling and with Lambda = Xi, A2u ties with the Eu pair.
        PjtParams(hbar_omega=80.0, lambda_corr=10.0, xi_corr=10.0, f_g=0.0, f_u=0.0),
        # With f_g = 0 and Lambda = Xi = 0 the e_g orbital is a spectator,
        # and every level is at least twofold.
        PjtParams(hbar_omega=20.0, lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=1.0),
    ],
    ids=["decoupled", "spectator"],
)
def test_degenerate_ground_refused_at_every_cutoff(params):
    # Rounding orders the tied ground levels differently from one cutoff to
    # the next; the refusal must not depend on it.
    cutoffs = range(1, 21)
    refusal = r"lowest level is not a nondegenerate A2u-type state \(multiplicity [2-9]"
    for cutoff in cutoffs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            with pytest.raises(StateOrderingError, match=refusal):
                spectrum_report(params, cutoff)
    for row in converge_cutoff(params, cutoffs, 8).rows:
        assert row.energies is not None
        assert np.isnan(row.delta)
        assert re.match(refusal, row.error)


def test_spectrum_report_siv():
    report = spectrum_report(SIV, 15)
    levels = report.levels
    assert len(report.labels) == levels.energies.size == 8
    assert report.labels[:3] == ("A2u", "Eu", "Eu")
    assert levels.j[:3].tolist() == [0, 1, -1]
    assert report.delta == pytest.approx(6.664543, abs=1e-4)
    assert np.all(np.diff(levels.energies) >= 0.0)
    assert np.all(levels.r_squared > 0.0)


def test_spectrum_report_positive_delta_all_presets():
    for name, params in PRESETS.items():
        report = spectrum_report(params, 15)
        assert report.delta > 0.0, name


def test_spectrum_report_zero_coupling_pattern():
    params = PjtParams(
        hbar_omega=75.9, lambda_corr=78.3, xi_corr=45.0, f_g=0.0, f_u=0.0
    )
    report = spectrum_report(params, 6, num_states=14)
    levels = report.levels
    assert report.labels[:3] == ("A2u", "Eu", "Eu")
    assert levels.j[0] == 0
    assert levels.j[1] != 0
    # without coupling the gap is the bare electronic one
    assert report.delta == pytest.approx(78.3 - 45.0, abs=1e-8)
    # The bare A1u level, 2 Lambda above the ground level, is the odd
    # J = 0 level of pure A1u character.
    partners = np.flatnonzero(
        np.abs(levels.energies - levels.energies[0] - 2.0 * 78.3) < 1e-8
    )
    assert [report.labels[i] for i in partners] == ["A1u"]
    assert levels.character[partners[0], 1] == pytest.approx(1.0, abs=1e-12)
    assert levels.j[partners[0]] == 0


@settings(max_examples=200, deadline=None)
@given(
    hbar_omega=st.floats(20.0, 150.0),
    xi=st.floats(0.0, 100.0),
    gap=st.floats(1e-6, 0.9, exclude_max=True),
    f_u=st.floats(0.0, 0.1),
    f_g=st.floats(0.0, 1.0),
)
def test_weak_coupling_delta_matches_second_order(hbar_omega, xi, gap, f_u, f_g):
    # Second-order perturbation theory from A2u |0, 0> and the J = +-1
    # doublet E+- |0, 0>, which holds while 0 < Lambda - Xi < hbar_omega:
    # gap is (Lambda - Xi) / hbar_omega, kept far above the resolution, at
    # which the ground level would tie with the doublet; f_u is a fraction
    # of the smallest energy denominator d, and f_g a fraction of f_u. The
    # error is of fourth order in f_s = f_u + f_g; f_u^4 / d^3 alone does
    # not bound it.
    lam = xi + gap * hbar_omega
    d = min(hbar_omega, hbar_omega - (lam - xi), lam - xi)
    f_u *= d
    f_g *= f_u
    report = spectrum_report(PjtParams(hbar_omega, lam, xi, f_g, f_u), 8, 8)
    f_s, f_d = f_u + f_g, f_u - f_g
    expected = (
        (lam - xi)
        + f_s**2 / (lam - xi + hbar_omega)
        - f_s**2 / (2.0 * (hbar_omega + xi - lam))
        - f_d**2 / (2.0 * (hbar_omega + lam + xi))
    )
    bound = f_s**4 / d**3 + 2.0 * report.levels.resolution
    assert abs(report.delta - expected) <= bound
