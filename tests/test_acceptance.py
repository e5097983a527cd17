"""Acceptance gate: one test per shipping criterion.

Each test carries an ``acceptance`` marker; the conftest hook prints one
summary line per criterion at the end of the run.
"""

import numpy as np
import pytest

from pjtdiag import (
    PRESETS,
    PjtParams,
    classical_apes,
    converge_cutoff,
    couplings_from_ejt,
    ejt_from_couplings,
    spectrum_report,
)
from pjtdiag.sectors import lowest_levels
from reference import assemble, build_basis, solve

PRESET_NAMES = ("SiV", "GeV", "SnV", "PbV")
# The published splittings delta (meV) that criterion 1 reproduces.
REFERENCE_DELTAS = {"SiV": 6.7, "GeV": 7.6, "SnV": 9.3, "PbV": 10.8}


@pytest.fixture(scope="module")
def reports():
    """Spectrum reports for every preset at the production cutoff."""
    return {
        name: spectrum_report(PRESETS[name], 15, num_states=8)
        for name in PRESET_NAMES
    }


@pytest.mark.acceptance(
    num=1, title="delta within 10% of the reference value for every preset"
)
def test_c1_delta_reproduction(reports):
    for name in PRESET_NAMES:
        reference = REFERENCE_DELTAS[name]
        delta = reports[name].delta
        assert abs(delta - reference) <= 0.10 * reference, (name, delta)


@pytest.mark.acceptance(
    num=2,
    title="nondegenerate ground state below a degenerate doublet, every preset",
)
def test_c2_level_ordering(reports):
    for name in PRESET_NAMES:
        levels = reports[name].levels
        assert levels.j[0] == 0, name
        assert reports[name].labels[0] == "A2u", name
        assert levels.character[0, 0] > 0.45, name
        assert levels.energies[1] - levels.energies[0] > 1e-6, name
        assert levels.energies[2] - levels.energies[1] < 1e-6, name
        assert levels.j[1] != 0, name


@pytest.mark.acceptance(
    num=3, title="SiV ground state mixes about half A2u with half E weight"
)
def test_c3_character_mixing(reports):
    character = reports["SiV"].levels.character
    assert 0.45 <= character[0, 0] <= 0.60
    assert 0.40 <= character[0, 2] <= 0.55
    doublet = 0.5 * (character[1] + character[2])
    assert doublet[2] > 0.45


@pytest.mark.acceptance(
    num=4, title="channel relaxation energies match the coupling constants"
)
def test_c4_channel_energy_consistency():
    e_jt1, _ = ejt_from_couplings(PRESETS["SiV"])
    assert abs(e_jt1 - 258.0) <= 1.0
    f_g, f_u = couplings_from_ejt(258.0, 0.47, 75.9)
    assert abs(f_g - 95.0) <= 2.5
    assert abs(f_u - 103.0) <= 2.5


@pytest.mark.acceptance(
    num=5, title="classical sheets: origin eigenvalues and trough depth, every preset"
)
def test_c5_classical_sheet_anchors():
    grid = np.linspace(-4.0, 4.0, 81)
    for name in PRESET_NAMES:
        params = PRESETS[name]
        origin = classical_apes(params, 0.0, 0.0)
        expected = np.sort(
            [
                -params.lambda_corr,
                -params.xi_corr,
                -params.xi_corr,
                params.lambda_corr,
            ]
        )
        assert np.allclose(origin.energies, expected, atol=1e-9), name
        e_jt1, _ = ejt_from_couplings(params)
        lowest = classical_apes(params, grid, 0.0).energies[:, 0].min()
        assert lowest <= -e_jt1, name


@pytest.mark.acceptance(
    num=6, title="vibronic delta falls below the bare electronic gap, every preset"
)
def test_c6_gap_reduction(reports):
    for name in PRESET_NAMES:
        params = PRESETS[name]
        bare_gap = params.lambda_corr - params.xi_corr
        assert reports[name].delta < bare_gap, name


@pytest.mark.acceptance(
    num=7,
    title="properties: hermiticity, variational ladder, sector levels against the "
    "product-space solve, decoupled limit, trough character",
)
def test_c7_property_suite():
    rng = np.random.default_rng(2024)

    # assembled matrices are exactly symmetric for random parameters
    for _ in range(100):
        params = PjtParams(
            hbar_omega=float(rng.uniform(20.0, 150.0)),
            lambda_corr=float(rng.uniform(0.0, 150.0)),
            xi_corr=float(rng.uniform(0.0, 100.0)),
            f_g=float(rng.uniform(0.0, 150.0)),
            f_u=float(rng.uniform(0.0, 150.0)),
        )
        h = assemble(params, build_basis(int(rng.integers(0, 7))))
        assert abs(h.matrix - h.matrix.T).max() == 0.0

    # ground energy descends monotonically as the cutoff grows
    for name in PRESET_NAMES:
        study = converge_cutoff(PRESETS[name], (5, 10, 15, 20, 25), 1)
        ground = [row.energies[0] for row in study.rows]
        assert all(
            later <= earlier + 1e-12 for earlier, later in zip(ground, ground[1:])
        ), name

    # the J sectors and the dense product-space solve agree on the lowest
    # ten levels
    h = assemble(PRESETS["SiV"], build_basis(15))
    dense = solve(h, 10)
    sectors = lowest_levels(PRESETS["SiV"], 15, 10)
    assert np.abs(dense.energies - sectors.energies).max() < 1e-8

    # with couplings and correlation off, the spectrum is oscillator shells
    # with fourfold electronic multiplicity per shell
    quantum = 75.9
    bare = PjtParams(
        hbar_omega=quantum, lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=0.0
    )
    energies = np.linalg.eigvalsh(assemble(bare, build_basis(5)).matrix)
    shells = np.round(energies / quantum).astype(int)
    assert np.allclose(energies, shells * quantum, atol=1e-9)
    values, counts = np.unique(shells, return_counts=True)
    assert list(values) == [1, 2, 3, 4, 5, 6]
    assert list(counts) == [4 * shell for shell in values]

    # without correlation the lowest classical sheet carries exactly half
    # A2u weight and no A1u weight anywhere on a ring
    trough = PjtParams(
        hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=95.0, f_u=103.0
    )
    for radius in (0.8, 2.6, 4.0):
        for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            point = classical_apes(
                trough, radius * np.cos(angle), radius * np.sin(angle)
            )
            assert point.characters[0].tolist() == [0.5, 0.0, 0.5]


@pytest.mark.acceptance(num=8, title="absolute optical energies are out of scope")
def test_c8_out_of_scope():
    pytest.skip(
        "absolute optical transition energies and their strain or "
        "temperature response require electronic total energies that this "
        "package does not compute"
    )
