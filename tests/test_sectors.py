"""Conserved-J sectors against the full product-space route."""

import argparse
import contextlib
import dataclasses
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pjtdiag import (
    PRESETS,
    ConvergenceError,
    PjtParams,
    StateOrderingError,
    TruncationWarning,
    converge_cutoff,
    delta_splitting,
    spectrum_report,
)
from pjtdiag.cli import cmd_spectrum
from pjtdiag.sectors import _fill, _fill_plan, lowest_levels
from reference import (
    assemble,
    build_basis,
    c3_rotation,
    classify_levels,
    every_sector_levels,
    fill,
    multiplets,
    reflection,
    rotation_generator,
    sector_matrices,
    symmetry_vectors,
)

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


def decoupled(hbar_omega, correlation):
    """Without coupling and with Lambda = Xi, the A2u and Eu levels of each
    shell s tie exactly across the sectors |J| <= s + 1."""
    return PjtParams(hbar_omega, correlation, correlation, 0.0, 0.0)


DECOUPLED = st.builds(decoupled, st.floats(20.0, 150.0), st.floats(0.0, 100.0))


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
    full = np.linalg.eigvalsh(assemble(params, build_basis(cutoff)).matrix)
    spectra = sector_spectra(params, cutoff)
    union = np.sort(np.concatenate(list(spectra.values())))
    assert union.shape == full.shape
    assert np.abs(union - full).max() < TOL_MEV
    for j, levels in spectra.items():
        assert np.abs(levels - spectra[-j]).max(initial=0.0) < TOL_MEV, j


def by_symmetry(indices, j, parity):
    """indices grouped by |J| and, at J = 0, the sign of the parity."""
    groups = {}
    for i, j_i, parity_i in zip(indices, j, parity):
        key = (abs(int(j_i)), int(np.sign(parity_i)) if j_i == 0 else 0)
        groups.setdefault(key, []).append(i)
    return groups


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cutoff=CUTOFFS)
def test_spectrum_report_matches_full_space_pipeline(params, cutoff):
    basis = build_basis(cutoff)
    h = assemble(params, basis).matrix
    energies, vectors = np.linalg.eigh(h)
    # A level count that cuts no multiplet, so that both routes report the
    # same multiplets whole.
    counts = [k for k in range(3, 9) if energies[k] - energies[k - 1] >= 1e-6]
    assume(counts)
    num_states = counts[-1]
    members = multiplets(energies[:num_states])
    # Weights and R of a level are as well determined as its eigenvector,
    # whose rounding error in either route grows as 1 / (gap to the nearest
    # other multiplet): 1e-9 for gaps of 1e-2 meV and up, looser below.
    steps = np.diff(energies[: num_states + 1])
    gap = steps[steps >= 1e-6].min()
    vector_tol = max(TOL_MEV, 1e-11 / gap)
    # Each level turned to definite J and reflection, and its own energy.
    turned = symmetry_vectors(energies[:num_states], vectors[:, :num_states], basis)
    own = np.einsum("si,si->i", turned, h @ turned)
    sector = lowest_levels(params, cutoff, num_states)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        levels = classify_levels(energies[:num_states], vectors[:, :num_states], basis)
        ground = levels[int(np.argmin(own))]
        doublets = [i for i, level in enumerate(levels) if level.j % 3]
        # A ground level that ties with the next to within the sector
        # route's resolution is refused; within a factor 4 of that bound,
        # rounding decides.
        tie = energies[1] - energies[0]
        if tie < sector.resolution / 4 or ground.label != "A2u":
            refusal = "lowest level is not"
        else:
            refusal = None if doublets else "no Eu-type doublet"
        if sector.resolution / 4 <= tie <= 4 * sector.resolution:
            try:
                report = spectrum_report(params, cutoff, num_states)
            except StateOrderingError:
                return
        elif refusal:
            with pytest.raises(StateOrderingError, match=refusal):
                spectrum_report(params, cutoff, num_states)
            return
        else:
            report = spectrum_report(params, cutoff, num_states)

    assert report.delta == pytest.approx(own[doublets].min() - energies[0], abs=TOL_MEV)
    assert len(report.labels) == num_states
    assert np.abs(report.levels.energies - energies[:num_states]).max() < TOL_MEV
    # Inside a multiplet the two routes order the levels differently, so
    # they are matched by symmetry. Weights and R^2 are compared as means
    # over the levels of one symmetry: the two of a pair +-J, which share
    # them in either route, or levels of one symmetry that tie exactly
    # (with f_g = f_u, say, A1u decouples), which only the mean fixes. The
    # full-space Eux and Euy weights are pooled into w_eu: their split moves
    # at first order in the tiny mixing a full-space solver leaves between
    # close levels of different J, and every other weight only at second
    # order.
    for m in members:
        ours = by_symmetry(m, sector.j[m], sector.parity[m])
        theirs = by_symmetry(m, [levels[i].j for i in m], [levels[i].reflection for i in m])
        assert {key: len(a) for key, a in ours.items()} == {
            key: len(b) for key, b in theirs.items()
        }
        for key, a in ours.items():
            b = theirs[key]
            assert {report.labels[i] for i in a} == {levels[b[0]].label}
            character = report.levels.character[a].mean(axis=0)
            expected = np.mean([levels[i].character for i in b], axis=0)
            expected = np.add.reduceat(expected, [0, 1, 2])
            assert np.abs(character - expected).max() < vector_tol
            r_squared = report.levels.r_squared[a].mean()
            expected_r = np.mean([levels[i].distortion_r**2 for i in b])
            assert r_squared == pytest.approx(expected_r, abs=vector_tol)


def full_space_symmetry(params, cutoff):
    """(basis, energies, symmetry_vectors, |J|) of every full-space level."""
    basis = build_basis(cutoff)
    energies, vectors = np.linalg.eigh(assemble(params, basis).matrix)
    vectors = symmetry_vectors(energies, vectors, basis)
    j = np.rint(np.linalg.norm(rotation_generator(basis) @ vectors, axis=0)).astype(int)
    return basis, energies, vectors, j


def symmetry_tol(energies):
    """Rounding error of full-space eigenvectors, as 1 / (gap to the nearest
    other multiplet)."""
    steps = np.diff(energies)
    gaps = steps[steps >= 1e-6]
    return max(TOL_MEV, 1e-11 / gaps.min()) if gaps.size else TOL_MEV


@settings(max_examples=60, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 8))
def test_angular_momentum_generator_commutes_with_hamiltonian(params, cutoff):
    basis = build_basis(cutoff)
    h = assemble(params, basis).matrix
    k = rotation_generator(basis)
    assert abs(k + k.T).max() == 0.0
    scale = max(1.0, abs(h).max())
    assert abs(h @ k - k @ h).max() <= 1e-13 * scale * (cutoff + 1)


@settings(max_examples=60, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 8))
def test_c3_turn_gives_phases_of_j(params, cutoff):
    basis, energies, vectors, j = full_space_symmetry(params, cutoff)
    c3 = c3_rotation(basis)
    tol = symmetry_tol(energies)
    for members in multiplets(energies):
        for value in np.unique(j[members]):
            part = vectors[:, members[j[members] == value]]
            phases = part.T @ c3 @ part
            identity = np.eye(len(phases))
            # C3 keeps the levels of one |J| and acts there as
            # exp(+-2 pi i J / 3): 1 for J a multiple of 3, else the
            # primitive cube roots of unity, z^2 + z + 1 = 0.
            assert np.abs(phases @ phases.T - identity).max() < tol
            if value % 3 == 0:
                assert np.abs(phases - identity).max() < tol, value
            else:
                assert np.abs(phases @ phases + phases + identity).max() < tol, value


@settings(max_examples=60, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 8))
def test_reflection_parity_of_the_j0_labels(params, cutoff):
    basis, energies, vectors, j = full_space_symmetry(params, cutoff)
    parity = np.einsum("si,si->i", vectors, reflection(basis) @ vectors)
    levels = lowest_levels(params, cutoff, energies.size)
    tol = symmetry_tol(energies)
    assert np.abs(levels.energies - energies).max() < TOL_MEV
    for members in multiplets(energies):
        zero = members[j[members] == 0]
        assert np.abs(np.abs(parity[zero]) - 1.0).max(initial=0.0) < tol
        # The sector route labels the J = 0 levels of the multiplet A2u
        # (parity +1) or A1u (parity -1) as often as the reflection says.
        assert np.array_equal(
            np.sort(np.sign(parity[zero])),
            np.sort(levels.parity[members][levels.j[members] == 0]),
        )
        assert np.array_equal(np.sort(j[members]), np.sort(np.abs(levels.j[members])))


@settings(max_examples=100, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20))
def test_halves_make_up_sector_zero(params, cutoff):
    plan = _fill_plan(cutoff, 2)
    assert plan.layout.parity[:2].tolist() == [1, -1]
    assert plan.layout.dims[:2].tolist() == [cutoff + 1, cutoff + 1]
    halves = _fill(params, plan)[0][:, : cutoff + 1, : cutoff + 1]
    _, dims, whole = sector_matrices(params, cutoff, [0])
    assert dims[0] == 2 * cutoff + 2
    union = np.sort(np.linalg.eigvalsh(halves).ravel())
    assert np.abs(union - np.linalg.eigvalsh(whole[0])).max() < TOL_MEV


@settings(max_examples=100, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(1, 20), data=st.data())
def test_variational_ladder(params, cutoff, data):
    # H at cutoff N is H at N + 1 compressed to the shells up to N, in the
    # whole space and in every sector, so by Cauchy interlacing the k-th
    # lowest level does not rise from N to N + 1.
    num_states = data.draw(st.integers(1, 2 * (cutoff + 1) * (cutoff + 2)), label="num_states")
    coarse = lowest_levels(params, cutoff, num_states)
    fine = lowest_levels(params, cutoff + 1, num_states)
    resolution = max(coarse.resolution, fine.resolution)
    assert np.all(fine.energies <= coarse.energies + resolution)
    # The padding of each sector matrix lies above its levels, so the
    # lowest dims[j] eigenvalues of block j are the levels of sector J = j.
    js = range(cutoff + 2)
    _, dims, coarse_stack = sector_matrices(params, cutoff, js)
    fine_values = np.linalg.eigvalsh(sector_matrices(params, cutoff + 1, js)[2])
    coarse_values = np.linalg.eigvalsh(coarse_stack)
    for j, dim in zip(js, dims):
        assert np.all(fine_values[j, :dim] <= coarse_values[j, :dim] + resolution), j


@settings(max_examples=150, deadline=None)
@given(
    params=PARAMS | DECOUPLED,
    cutoff=st.integers(0, 30),
    exponent=st.floats(-300.0, 300.0),
    head=st.integers(2, 33),
)
@example(params=SIV, cutoff=15, exponent=0.0, head=6)
@example(params=SIV, cutoff=15, exponent=300.0, head=6)
def test_planned_fill_matches_the_generic_fill(params, cutoff, exponent, head):
    # The head and the certified blocks, the latter cut to the largest of
    # their dimensions, are the padded stack of the reference fill bit for
    # bit, and the ceiling is its padding diagonal, inf included.
    params = scaled(params, 10.0**exponent)
    head = min(head, cutoff + 3)
    plan = _fill_plan(cutoff, head)
    stack, certified, ceiling = _fill(params, plan)
    reference = fill(params, plan.layout)
    width = plan.width
    assert width == plan.layout.dims[head:].max(initial=0)
    assert stack.tobytes() == reference[:head].tobytes()
    assert certified.tobytes() == reference[head:, :width, :width].tobytes()
    assert ceiling.tobytes() == reference.diagonal(axis1=1, axis2=2).max().tobytes()
    # lowest_levels reads the levels off the padded eigenvalues, which holds
    # because every padding eigenvalue lies above every level of the head.
    if np.isfinite(ceiling):
        values = np.linalg.eigvalsh(stack)
        padding = np.arange(stack.shape[-1]) >= plan.layout.dims[:head, None]
        assert values[padding].min() > values[~padding].max()


def assert_same_levels(levels, reference, tol=1e-12):
    for name in ("energies", "j", "parity", "resolution"):
        assert np.array_equal(getattr(levels, name), getattr(reference, name)), name
    for name in ("character", "r_squared", "top_shell_weight"):
        assert np.abs(getattr(levels, name) - getattr(reference, name)).max() <= tol, name


@settings(max_examples=60, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 12), data=st.data())
def test_spectrum_report_carries_the_sector_levels(params, cutoff, data):
    num_states = data.draw(st.integers(3, min(12, 2 * (cutoff + 1) * (cutoff + 2))))
    levels = lowest_levels(params, cutoff, num_states)
    args = argparse.Namespace(command="spectrum", cutoff=cutoff, states=num_states, output=None)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            report = spectrum_report(params, cutoff, num_states)
        except StateOrderingError:
            with pytest.raises(StateOrderingError):
                delta_splitting(params, cutoff, num_states=num_states)
            return
        cmd_spectrum(args, params, "test")
    assert_same_levels(report.levels, levels, tol=0.0)
    assert np.array_equal(report.levels.residuals, levels.residuals)
    assert len(report.labels) == num_states
    # Three '#' lines and the column header come before the rows, delta after.
    rows = [line.split(",") for line in out.getvalue().splitlines()[4:-1]]
    assert [row[5] for row in rows] == [f"{w:.6f}" for w in levels.character[:, 2]]


@settings(max_examples=150, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20), data=st.data())
def test_pruned_sectors_match_every_sector(params, cutoff, data):
    num_states = data.draw(st.integers(1, 2 * (cutoff + 1) * (cutoff + 2)), label="num_states")
    levels = lowest_levels(params, cutoff, num_states)
    assert_same_levels(levels, every_sector_levels(params, cutoff, num_states))


def recorded_eigh_batches(monkeypatch):
    """Shapes of the stacks of every np.linalg.eigh call from now on."""
    batches = []
    eigh = np.linalg.eigh

    def recording(stack):
        batches.append(stack.shape)
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return batches


def test_only_sectors_that_can_hold_a_wanted_level_are_diagonalized(monkeypatch):
    # The two halves of sector 0 and sectors 1 .. 4.
    batches = recorded_eigh_batches(monkeypatch)
    levels = lowest_levels(SIV, 60, 8)
    assert batches == [(6, 122, 122)]
    monkeypatch.undo()
    assert_same_levels(levels, every_sector_levels(SIV, 60, 8))


def test_failed_certification_diagonalizes_the_rest(monkeypatch):
    # The ground level of J = 0 ties with the lowest of J = 1, so sector 1
    # fails the Cholesky test and every block is diagonalized after the
    # halves, all as the head, padded to 2N + 2 from the start.
    params = decoupled(80.0, 10.0)
    for cutoff in (15, 40):
        size = 2 * cutoff + 2
        assert _fill_plan(cutoff, 2).width < size
        batches = recorded_eigh_batches(monkeypatch)
        levels = lowest_levels(params, cutoff, 1)
        assert batches == [(2, size, size), (cutoff + 3, size, size)]
        # Both plans stay cached, so a fit that keeps failing builds none.
        misses = _fill_plan.cache_info().misses
        again = lowest_levels(params, cutoff, 1)
        assert _fill_plan.cache_info().misses == misses
        monkeypatch.undo()
        assert_same_levels(levels, every_sector_levels(params, cutoff, 1))
        assert_same_levels(again, levels, tol=0.0)


def test_cached_layout_is_read_only():
    plan = _fill_plan(15, 6)
    assert _fill_plan(15, 6) is plan
    layout = plan.layout
    names = ("j_values", "parity", "dims", "component", "shell", "observed", "moment_off")
    arrays = [getattr(layout, name) for name in names] + list(layout.coupling)
    names = ("quanta", "component", "slots", "positions", "padding")
    arrays += [getattr(plan, name) for name in names]
    assert not any(array.flags.writeable for array in arrays)


def test_fill_makes_no_second_stack():
    plan = _fill_plan(80, 6)
    tracemalloc.start()
    try:
        stack, certified, _ = _fill(SIV, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (stack.nbytes + certified.nbytes)


def test_lowest_levels_memory_at_the_fitting_cutoff():
    # The padded head, the certified blocks at their own width and eigh's
    # vectors; the plan is cached by the first call, as in a fit.
    lowest_levels(SIV, 15, 8)
    tracemalloc.start()
    try:
        lowest_levels(SIV, 15, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * 2**10


def test_failed_certification_memory():
    # After the head, every block padded to 2N + 2 and eigh's vectors of it;
    # the head's stack is freed first. Both plans are cached by the first
    # call, as in a fit.
    cutoff = 60
    stack_bytes = (cutoff + 3) * (2 * cutoff + 2) ** 2 * 8
    params = decoupled(80.0, 10.0)
    lowest_levels(params, cutoff, 1)
    tracemalloc.start()
    try:
        lowest_levels(params, cutoff, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stack_bytes


def test_siv_levels_carry_j_and_labels():
    levels = lowest_levels(SIV, 15, 24)
    assert np.abs(levels.j).tolist() == [
        0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 1, 1, 2, 2, 5, 5, 3, 3, 6, 6, 0, 1, 1, 4
    ]
    assert levels.parity[levels.j == 0].tolist() == [1, 1, 1]
    # Each mirror copy follows its level and shares it bitwise.
    pairs = np.flatnonzero(levels.j < 0)
    assert np.array_equal(levels.j[pairs], -levels.j[pairs - 1])
    for name in ("energies", "character", "r_squared"):
        values = getattr(levels, name)
        assert np.array_equal(values[pairs], values[pairs - 1]), name


def test_residuals_and_weights_of_sector_levels():
    levels = lowest_levels(SIV, 15, 8)
    assert levels.residuals.max() < 1e-10
    assert levels.character.shape == (8, 3)
    assert np.allclose(levels.character.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(levels.top_shell_weight < 0.01)


def test_spectrum_report_warns_when_truncated():
    # The warning names the line that called spectrum_report.
    with pytest.warns(TruncationWarning, match="top two Fock shells") as record:
        spectrum_report(SIV, 4, 3)
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
        (lambda: delta_splitting(SIV, 15, num_states="3"), "num_states", "3"),
        (lambda: delta_splitting(SIV, 15, num_states=1.0), "num_states", 1.0),
        (lambda: spectrum_report(SIV, 15.0), "cutoff", 15.0),
        (lambda: spectrum_report(SIV, 15, "8"), "num_states", "8"),
        (lambda: spectrum_report(SIV, 15, num_states=2.0), "num_states", 2.0),
    ],
)
def test_non_integer_cutoff_or_level_count_refused(call, name, value):
    with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call()


def test_numpy_integer_arguments_match_plain_ints():
    # Under numpy 2 a numpy integer kept as cutoff or num_states would
    # overflow _fill's offsets, and its broken plan would be cached under the
    # key of the equal plain int, breaking the plain call afterwards too.
    plain = lowest_levels(SIV, 3, 5)
    plain_delta = delta_splitting(SIV, 60, num_states=8)
    _fill_plan.cache_clear()
    for kind in (np.int8, np.int16, np.uint8, np.int64):
        assert_same_levels(lowest_levels(SIV, kind(3), kind(5)), plain, tol=0.0)
    assert delta_splitting(SIV, np.uint8(60), num_states=np.int16(8)) == plain_delta
    assert_same_levels(lowest_levels(SIV, 3, 5), plain, tol=0.0)
    study = converge_cutoff(SIV, np.arange(5, 20, 5), np.int8(8))
    assert all(row.error is None for row in study.rows)


def scaled(params, scale):
    """params with all five energies multiplied by scale."""
    return PjtParams(*(scale * value for value in dataclasses.astuple(params)))


def tied_runs(levels):
    """Sorted (J, parity) pairs of each run of levels tied to the
    resolution, the last run dropped. Rounding orders the levels of a run,
    and decides which levels of a run cut by num_states are kept."""
    cuts = np.flatnonzero(np.diff(levels.energies) > levels.resolution) + 1
    runs = np.split(np.column_stack([levels.j, levels.parity]), cuts)[:-1]
    return [sorted(map(tuple, run.tolist())) for run in runs]


def delta_or_refusal(params, cutoff, num_states):
    try:
        return delta_splitting(params, cutoff, num_states=num_states)
    except StateOrderingError:
        return None


@settings(max_examples=150, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20), exponent=st.floats(-300.0, 300.0))
@example(params=SIV, cutoff=15, exponent=5.0)
@example(params=SIV, cutoff=15, exponent=-16.0)
@example(params=SIV, cutoff=15, exponent=300.0)
def test_levels_scale_with_the_energies(params, cutoff, exponent):
    # H is homogeneous of degree one in the five energies, so the unit of
    # energy must decide neither acceptance nor ties.
    scale = 10.0**exponent
    num_states = min(8, 2 * (cutoff + 1) * (cutoff + 2))
    levels = lowest_levels(params, cutoff, num_states)
    big = lowest_levels(scaled(params, scale), cutoff, num_states)
    bound = 1e-12 * np.abs(big.energies).max()
    assert np.abs(big.energies - scale * levels.energies).max() <= bound
    # Levels closer than a few resolutions may tie on one side only.
    gaps = np.diff(levels.energies) / levels.resolution
    assume(not np.any((gaps > 0.25) & (gaps < 4.0)))
    assert tied_runs(big) == tied_runs(levels)
    delta = delta_or_refusal(params, cutoff, num_states)
    big_delta = delta_or_refusal(scaled(params, scale), cutoff, num_states)
    assert (delta is None) == (big_delta is None)
    if delta is not None:
        assert abs(big_delta - scale * delta) <= bound


HUGE = PjtParams(7.59e307, 7.83e307, 4.5e307, 9.5e307, 1.03e308)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lowest_levels(HUGE, 15, 8),
        lambda: delta_splitting(HUGE, 15),
        lambda: spectrum_report(HUGE, 15),
    ],
)
def test_matrix_beyond_float_range_refused_before_eigh(monkeypatch, call):
    batches = recorded_eigh_batches(monkeypatch)
    with pytest.raises(ValueError, match="matrix elements at cutoff 15 are beyond the float range"):
        call()
    assert batches == []


def test_unconverged_levels_carry_diagnostics(perturbed_eigh):
    with pytest.raises(ConvergenceError, match="exceed the resolution") as excinfo:
        lowest_levels(SIV, 15, 8)
    error = excinfo.value
    assert error.energies.shape == error.residuals.shape == (8,)
    assert error.residuals.max() > 1e-6
    study = converge_cutoff(SIV, [5, 10], 8)
    for row in study.rows:
        assert row.energies is None
        assert row.error.startswith("sector residuals up to ")
