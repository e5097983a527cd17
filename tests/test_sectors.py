"""Conserved-J sectors against the full product-space route."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pjtdiag import (
    PRESETS,
    ConvergenceError,
    PjtParams,
    StateOrderingError,
    TruncationWarning,
    converge_cutoff,
    delta_from_groups,
    delta_splitting,
    spectrum_report,
)
from pjtdiag.analysis import level_groups
from pjtdiag.sectors import _sector_layout, lowest_levels, sector_matrices
from reference import assemble, build_basis, classify_levels, every_sector_levels, solve

SIV = PRESETS["SiV"].params

# The parameter ranges of the acceptance property suite.
PARAMS = st.builds(
    PjtParams,
    hbar_omega=st.floats(20.0, 150.0),
    lambda_corr=st.floats(0.0, 150.0),
    xi_corr=st.floats(0.0, 100.0),
    f_g=st.floats(0.0, 150.0),
    f_u=st.floats(0.0, 150.0),
)
CUTOFFS = st.integers(1, 8)
TOL_MEV = 1e-9


def on_label_tie(character, degeneracy, tol):
    """Whether pooled weights sit on a threshold of the label rule, where
    rounding alone picks the label (and with it whether delta exists)."""
    w_a2u, w_a1u, w_eux, w_euy = character
    if degeneracy == 2:
        return False
    if degeneracy == 1:
        margins = (w_a2u - w_a1u, abs(w_a2u - w_a1u) - 1e-3)
    else:
        margins = (w_a2u - 0.5, w_a1u - 0.5, w_eux + w_euy - 0.5)
    return min(abs(m) for m in margins) < tol


def printed(character):
    """The weights the CLI prints: w_a2u, w_a1u and w_eux + w_euy. The split
    between Eux and Euy is not compared: it moves at first order in the
    tiny mixing a full-space solver leaves between close levels of
    different J, and every other weight only at second order."""
    return np.array([character[0], character[1], character[2] + character[3]])


def sector_spectra(params, cutoff):
    """Eigenvalues of every sector J = -(N + 1) .. N + 1, by J."""
    js, dims, stack = sector_matrices(params, cutoff, range(-cutoff - 1, cutoff + 2))
    return {
        int(j): np.linalg.eigvalsh(stack[k, :dim, :dim])
        for k, (j, dim) in enumerate(zip(js, dims))
    }


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cutoff=CUTOFFS)
def test_sector_spectra_make_up_the_full_spectrum(params, cutoff):
    full = np.linalg.eigvalsh(assemble(params, build_basis(cutoff)).matrix.toarray())
    spectra = sector_spectra(params, cutoff)
    union = np.sort(np.concatenate(list(spectra.values())))
    assert union.shape == full.shape
    assert np.abs(union - full).max() < TOL_MEV
    for j, levels in spectra.items():
        assert np.abs(levels - spectra[-j]).max(initial=0.0) < TOL_MEV, j


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cutoff=CUTOFFS)
def test_spectrum_report_matches_full_space_pipeline(params, cutoff):
    basis = build_basis(cutoff)
    h = assemble(params, basis)
    full = np.linalg.eigvalsh(h.matrix.toarray())
    # A level count that cuts no multiplet, so that pooled values do not
    # depend on the basis either route picks inside a degenerate level.
    counts = [k for k in range(3, 9) if full[k] - full[k - 1] > 1e-6]
    assume(counts)
    num_states = counts[-1]
    # Weights and R of a level are as well determined as its eigenvector,
    # whose rounding error in either route grows as 1 / (gap to the nearest
    # distinct level): 1e-9 for gaps of 1e-2 meV and up, looser below.
    steps = np.diff(full[: num_states + 1])
    gap = steps[steps > 1e-6].min()
    vector_tol = max(TOL_MEV, 1e-11 / gap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            result = solve(h, num_states)
        except ConvergenceError:
            # The dense subset solver can miss its residual bound when the
            # couplings are near the float underflow (about 1e-175 meV);
            # the sectors are then checked against eigvalsh alone.
            levels = lowest_levels(params, cutoff, num_states)
            assert np.abs(levels.energies - full[:num_states]).max() < TOL_MEV
            return
        groups = classify_levels(result.energies, result.vectors, basis)
        assume(not any(on_label_tie(g.character, g.degeneracy, vector_tol) for g in groups))
        try:
            delta = delta_from_groups(groups)
        except StateOrderingError:
            with pytest.raises(StateOrderingError):
                spectrum_report(params, cutoff, num_states)
            return
        report = spectrum_report(params, cutoff, num_states)

    assert report.delta == pytest.approx(delta, abs=TOL_MEV)
    expected = [(i, group) for group in groups for i in group.indices]
    assert len(report.states) == len(expected)
    for state, (i, group) in zip(report.states, expected):
        assert state.energy == pytest.approx(result.energies[i], abs=TOL_MEV)
        assert np.abs(printed(state.character) - printed(group.character)).max() < vector_tol
        assert state.distortion_r == pytest.approx(group.distortion_r, abs=vector_tol)
        assert state.dominant_label == group.label
        assert state.degeneracy == group.degeneracy


def assert_same_levels(levels, reference):
    assert np.array_equal(levels.energies, reference.energies)
    for name in ("character", "r_squared", "top_shell_weight"):
        assert np.abs(getattr(levels, name) - getattr(reference, name)).max() < 1e-12, name


def decoupled(hbar_omega, correlation):
    """Without coupling and with Lambda = Xi, the A2u and Eu levels of each
    shell s tie exactly across the sectors |J| <= s + 1."""
    return PjtParams(hbar_omega, correlation, correlation, 0.0, 0.0)


DECOUPLED = st.builds(decoupled, st.floats(20.0, 150.0), st.floats(0.0, 100.0))


@settings(max_examples=150, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20), data=st.data())
def test_pruned_sectors_match_every_sector(params, cutoff, data):
    num_states = data.draw(st.integers(1, 2 * (cutoff + 1) * (cutoff + 2)), label="num_states")
    levels = lowest_levels(params, cutoff, num_states)
    assert_same_levels(levels, every_sector_levels(params, cutoff, num_states))


def recorded_eigh_batches(monkeypatch):
    """Sector counts of every np.linalg.eigh call from now on."""
    batches = []
    eigh = np.linalg.eigh

    def recording(stack):
        batches.append(len(stack))
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return batches


def test_only_sectors_that_can_hold_a_wanted_level_are_diagonalized(monkeypatch):
    batches = recorded_eigh_batches(monkeypatch)
    levels = lowest_levels(SIV, 60, 8)
    assert batches == [5]
    monkeypatch.undo()
    assert_same_levels(levels, every_sector_levels(SIV, 60, 8))


def test_failed_certification_diagonalizes_the_rest(monkeypatch):
    # The ground level of J = 0 ties with the lowest of J = 1, so sector 1
    # fails the Cholesky test and sectors 1 .. 16 are diagonalized.
    params = decoupled(80.0, 10.0)
    batches = recorded_eigh_batches(monkeypatch)
    levels = lowest_levels(params, 15, 1)
    assert batches == [1, 16]
    monkeypatch.undo()
    assert_same_levels(levels, every_sector_levels(params, 15, 1))


def test_cached_layout_is_read_only():
    layout = _sector_layout(15)
    assert _sector_layout(15) is layout
    arrays = [getattr(layout, name) for name in ("j_values", "dims", "component", "shell")]
    arrays += [layout.moment_diag, layout.moment_off, *layout.coupling]
    assert not any(array.flags.writeable for array in arrays)


def test_residuals_and_weights_of_sector_levels():
    levels = lowest_levels(SIV, 15, 8)
    assert levels.residuals.max() < 1e-10
    assert np.allclose(levels.character.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(levels.top_shell_weight < 0.01)


def test_spectrum_report_warns_when_truncated():
    # Both entry points attribute the warning to the line that called them.
    for call in (lambda: spectrum_report(SIV, 4, 3), lambda: level_groups(SIV, 4, 3)):
        with pytest.warns(TruncationWarning, match="top two Fock shells") as record:
            call()
        assert {w.filename for w in record} == {__file__}


def test_oversized_cutoff_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MiB"):
            spectrum_report(SIV, 1000)
        with pytest.raises(ValueError, match="MiB"):
            sector_matrices(SIV, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_too_many_states_refused():
    with pytest.raises(ValueError, match="exceeds matrix dimension 12"):
        lowest_levels(SIV, 1, 13)
    assert lowest_levels(SIV, 1, 12).energies.size == 12


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: converge_cutoff(SIV, [5.7, 10.2], 3), "cutoffs[0]", 5.7),
        (lambda: converge_cutoff(SIV, [5, 10], 3.0), "num_states", 3.0),
        (lambda: lowest_levels(SIV, 5.5, 3), "cutoff", 5.5),
        (lambda: delta_splitting(SIV, 10, num_states=8.0), "num_states", 8.0),
        (lambda: spectrum_report(SIV, 15.0), "cutoff", 15.0),
    ],
)
def test_non_integer_cutoff_or_level_count_refused(call, name, value):
    with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {value}")):
        call()
