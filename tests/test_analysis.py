"""State characters, distortion, level grouping, delta, and sheet scans."""

import numpy as np
import pytest

from pjtdiag import (
    PRESETS,
    PjtParams,
    StateOrderingError,
    TruncationWarning,
    apes_scan,
    delta_splitting,
    ejt_from_couplings,
    spectrum_report,
)
from pjtdiag.hamiltonian import SYMMETRY_TRANSFORM
from reference import (
    build_basis,
    classify_levels,
    distortion_expectation,
    electronic_character,
)

SIV = PRESETS["SiV"].params

FROZEN_DELTA_AT_15 = {
    "SiV": 6.664543,
    "GeV": 7.611367,
    "SnV": 9.404289,
    "PbV": 10.875775,
}


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


def test_distortion_warns_when_weight_piles_at_the_cutoff():
    basis = build_basis(4)
    vector = symmetry_state(basis, 0, (4, 0))
    with pytest.warns(TruncationWarning):
        distortion_expectation(vector, basis)


def test_distortion_quiet_for_converged_state(siv_solution):
    import warnings

    basis, result = siv_solution
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        distortion_expectation(result.vectors[:, 0], basis)


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
    groups = classify_levels(result.energies, result.vectors, basis)
    assert [group.degeneracy for group in groups] == [1, 2, 2, 2, 1]
    assert groups[0].label == "A2u"
    assert groups[1].label == "Eu"
    for group in groups:
        assert group.character.sum() == pytest.approx(1.0, abs=1e-10)
        assert group.energy == pytest.approx(
            np.mean(result.energies[list(group.indices)]), abs=1e-9
        )


def test_classify_levels_without_distortion(siv_solution):
    basis, result = siv_solution
    groups = classify_levels(
        result.energies, result.vectors, basis, compute_r=False
    )
    assert all(np.isnan(group.distortion_r) for group in groups)


def test_delta_splitting_matches_frozen_values():
    for name, preset in PRESETS.items():
        delta = delta_splitting(preset.params, 15)
        assert delta == pytest.approx(FROZEN_DELTA_AT_15[name], abs=1e-4)
        assert delta == pytest.approx(preset.reference_delta, rel=0.10)


def test_delta_splitting_stable_against_deeper_cutoff():
    assert delta_splitting(SIV, 25) == pytest.approx(6.664440, abs=1e-4)


def test_delta_splitting_needs_three_states():
    with pytest.raises(ValueError, match="num_states"):
        delta_splitting(SIV, 15, num_states=2)


def test_delta_splitting_rejects_inverted_ordering():
    # strong E-channel correlation with weak coupling puts a degenerate
    # pair at the bottom, which the gap definition cannot accept
    inverted = PjtParams(
        hbar_omega=75.0, lambda_corr=0.0, xi_corr=45.0, f_g=10.0, f_u=10.0
    )
    with pytest.raises(StateOrderingError):
        delta_splitting(inverted, 8)


def test_apes_scan_origin_characters():
    scan = apes_scan(SIV, [0.0])
    assert scan.x.tolist() == [0.0]
    characters = scan.characters[0]
    assert np.allclose(scan.energies[0], [-78.3, -45.0, -45.0, 78.3], atol=1e-9)
    assert np.allclose(characters[0], [1.0, 0.0, 0.0], atol=1e-12)
    assert characters[1][2] == pytest.approx(1.0, abs=1e-12)
    assert characters[2][2] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(characters[3], [0.0, 1.0, 0.0], atol=1e-12)


def test_apes_scan_large_distortion_limit():
    classical = (SIV.f_g + SIV.f_u) / SIV.hbar_omega
    lowest_sheet = apes_scan(SIV, [3.0 * classical, 6.0 * classical]).characters[:, 0]
    assert lowest_sheet.shape == (2, 3)
    assert (np.abs(lowest_sheet[:, 0] - 0.5) < 0.01).all()
    assert (lowest_sheet[:, 1] < 1e-9).all()


def test_apes_scan_even_in_x():
    grid = np.linspace(-4.0, 4.0, 17)
    energies = apes_scan(SIV, grid).energies
    assert energies.shape == (17, 4)
    assert np.allclose(energies, energies[::-1], atol=1e-10)


def test_apes_scan_minimum_reaches_channel_depth():
    grid = np.linspace(-4.0, 4.0, 81)
    for preset in PRESETS.values():
        e_jt1, _ = ejt_from_couplings(preset.params)
        lowest = apes_scan(preset.params, grid).energies[:, 0].min()
        assert lowest <= -e_jt1, preset.name


def test_spectrum_report_siv():
    report = spectrum_report(SIV, 15)
    assert report.cutoff == 15
    assert len(report.states) == 8
    assert report.states[0].dominant_label == "A2u"
    assert report.states[0].degeneracy == 1
    assert report.states[1].dominant_label == "Eu"
    assert report.states[2].dominant_label == "Eu"
    assert report.states[1].degeneracy == 2
    assert report.delta == pytest.approx(6.664543, abs=1e-4)
    energies = [state.energy for state in report.states]
    assert energies == sorted(energies)
    assert all(state.distortion_r > 0.0 for state in report.states)


def test_spectrum_report_positive_delta_all_presets():
    for preset in PRESETS.values():
        report = spectrum_report(preset.params, 15)
        assert report.delta > 0.0, preset.name


def test_spectrum_report_zero_coupling_pattern():
    params = PjtParams(
        hbar_omega=75.9, lambda_corr=78.3, xi_corr=45.0, f_g=0.0, f_u=0.0
    )
    report = spectrum_report(params, 6, num_states=14)
    states = report.states
    assert states[0].dominant_label == "A2u"
    assert states[0].degeneracy == 1
    assert states[1].dominant_label == "Eu"
    assert states[2].dominant_label == "Eu"
    # without coupling the gap is the bare electronic one
    assert report.delta == pytest.approx(78.3 - 45.0, abs=1e-8)
    partners = [state for state in states if state.dominant_label == "A1u"]
    assert partners
    assert partners[0].energy - states[0].energy == pytest.approx(
        2.0 * 78.3, abs=1e-8
    )
