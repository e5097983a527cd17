"""Conserved-J sectors against the full product-space route."""

import argparse
import dataclasses
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
    spectrum_report,
)
from pjtdiag import sectors
from pjtdiag.cli import cmd_spectrum
from pjtdiag.sectors import (
    _Layout,
    _below,
    _blocks,
    _elements,
    _fill,
    check_bytes,
    check_cutoff,
    lowest_levels,
)
from reference import (
    MULTIPLET_TOL_MEV,
    assemble,
    build_basis,
    c3_rotation,
    classify_levels,
    every_sector_levels,
    exe_levels,
    fill,
    multiplets,
    reflection,
    rotation_generator,
    sector_floor,
    sector_matrices,
    solve,
    symmetry_vectors,
)

SIV = PRESETS["SiV"]

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


def test_sector_levels_match_the_product_space_solve():
    # The product space and the J sectors are independent routes.
    dense = solve(assemble(SIV, build_basis(15)), 10)
    levels = lowest_levels(SIV, 15, 10)
    assert np.abs(dense.energies - levels.energies).max() < 1e-8


def test_sector_levels_match_every_product_space_eigenvalue():
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


def by_symmetry(indices, j, parity):
    """indices grouped by |J| and, at J = 0, the sign of the parity."""
    groups = {}
    for i, j_i, parity_i in zip(indices, j, parity):
        key = (abs(int(j_i)), int(np.sign(parity_i)) if j_i == 0 else 0)
        groups.setdefault(key, []).append(i)
    return groups


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cutoff=CUTOFFS)
# The pair 20 -+ f_u / sqrt(2), 1.7e-7 meV apart: two levels, not one tie.
@example(params=PjtParams(20.0, 20.0, 0.0, 0.0, 1.192092896e-07), cutoff=1)
def test_spectrum_report_matches_full_space_pipeline(params, cutoff):
    basis = build_basis(cutoff)
    h = assemble(params, basis).matrix
    energies, vectors = np.linalg.eigh(h)
    # A level count that cuts no multiplet, so that both routes report the
    # same multiplets whole.
    counts = [k for k in range(3, 9) if energies[k] - energies[k - 1] >= MULTIPLET_TOL_MEV]
    assume(counts)
    num_states = counts[-1]
    members = multiplets(energies[:num_states])
    # Weights and R of a level are as well determined as its eigenvector,
    # whose rounding error in either route grows as 1 / (gap to the nearest
    # other multiplet): 1e-9 for gaps of 1e-2 meV and up, looser below.
    steps = np.diff(energies[: num_states + 1])
    gap = steps[steps >= MULTIPLET_TOL_MEV].min()
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
    gaps = steps[steps >= MULTIPLET_TOL_MEV]
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


@pytest.mark.parametrize("cutoff", range(21))
def test_blocks_couple_neighbouring_shells(cutoff):
    # The shell structure of every block: each coupling joins two states of
    # neighbouring shells and raises l = J - S by one, and a shell holds at
    # most two states of a sector J > 0 and one of either half of sector 0.
    layout = _blocks(cutoff)
    spin = np.array([0, 0, 1, -1])
    component, shell = layout.component, (layout.quanta - 1).astype(int)
    block, row, col, _, _ = layout.coupling
    assert (component[block, row] >= 0).all() and (component[block, col] >= 0).all()
    assert (np.abs(shell[block, row] - shell[block, col]) == 1).all()
    l_value = layout.j_values[:, None] - spin[component]
    assert (l_value[block, row] == l_value[block, col] + 1).all()
    for states, shells, parity in zip(component >= 0, shell, layout.parity):
        per_shell = np.bincount(shells[states], minlength=cutoff + 1)
        assert per_shell.max() <= (1 if parity else 2), parity


@settings(max_examples=100, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20))
def test_halves_make_up_sector_zero(params, cutoff):
    # The even half is the first block and the odd half the last. Filled as
    # one list with a gap, as when the odd half joins the head, they are the
    # ends of a fill of every block.
    layout = _blocks(cutoff)
    ends = [0, cutoff + 2]
    assert layout.parity[ends].tolist() == [1, -1]
    assert layout.dims[ends].tolist() == [cutoff + 1, cutoff + 1]
    diagonal, couplings, _ = _elements(params, layout)
    stack = _fill(diagonal, couplings, layout, ends, 2 * cutoff + 2)
    every = _fill(diagonal, couplings, layout, range(cutoff + 3), 2 * cutoff + 2)
    assert stack.tobytes() == every[ends].tobytes()
    halves = stack[:, : cutoff + 1, : cutoff + 1]
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


@settings(max_examples=100, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 30))
def test_sector_floor_lies_below_every_block(params, cutoff):
    # The closed-form floor of sector J lies at or below the lowest level of
    # its block, and that of J = 0 below both halves of sector 0. In the
    # decoupled limit the lowest level of sector 0 sits on the floor, so the
    # comparison allows for rounding.
    layout = _blocks(cutoff)
    diagonal, couplings, ceiling = _elements(params, layout)
    size = 2 * cutoff + 2
    stack = _fill(diagonal, couplings, layout, range(cutoff + 3), size)
    resolution = 8 * size * np.finfo(float).eps * ceiling
    lowest = np.linalg.eigvalsh(stack)[:, 0]
    assert (lowest >= sector_floor(params, layout.j_values) - resolution).all()


@settings(max_examples=150, deadline=None)
@given(
    params=PARAMS | DECOUPLED,
    cutoff=st.integers(0, 30),
    exponent=st.floats(-300.0, 300.0),
    first=st.integers(0, 32),
    head=st.integers(1, 33),
    kept=st.lists(st.booleans(), min_size=33, max_size=33),
    shift=st.floats(-1e3, 1e3),
)
@example(params=SIV, cutoff=15, exponent=0.0, first=0, head=4, kept=[True] * 33, shift=-1.5)
@example(params=SIV, cutoff=15, exponent=300.0, first=0, head=4, kept=[True] * 33, shift=-1.5)
@example(params=SIV, cutoff=15, exponent=0.0, first=4, head=5, kept=[False, True] * 17, shift=0.0)
@example(params=SIV, cutoff=15, exponent=0.0, first=4, head=18, kept=[True, False] * 17, shift=1.0)
@example(
    params=SIV, cutoff=15, exponent=0.0, first=0, head=4, kept=[False] * 17 + [True] * 16, shift=1.0
)
def test_fill_matches_the_generic_fill(params, cutoff, exponent, first, head, kept, shift):
    # The head and the certified blocks, the latter cut to the largest of
    # their dimensions, are the padded stack of the reference fill bit for
    # bit, and the ceiling is its padding diagonal, inf included. A head of
    # every block leaves nothing to certify. The blocks that kept picks, a
    # list with gaps such as failed blocks leave as they join, are those of
    # the reference too, padded to 2N + 2 or cut to their largest dimension.
    # Filled from the diagonal minus a shift s, as a certificate is, the
    # certified and the picked blocks are the reference with s subtracted
    # on its diagonal, padding included, bit for bit.
    params = scaled(params, 10.0**exponent)
    s = shift * 10.0**exponent
    head = min(head, cutoff + 3)
    first = min(first, head - 1)
    layout = _blocks(cutoff)
    diagonal, couplings, ceiling = _elements(params, layout)
    reference = fill(params, layout)
    index = np.arange(2 * cutoff + 2)
    at_shift = reference.copy()
    at_shift[:, index, index] -= s
    stack = _fill(diagonal, couplings, layout, range(first, head), 2 * cutoff + 2)
    assert stack.tobytes() == reference[first:head].tobytes()
    rest = range(head, cutoff + 3)
    if rest:
        width = layout.dims[head:].max()
        certified = _fill(diagonal, couplings, layout, rest, width)
        assert certified.tobytes() == reference[head:, :width, :width].tobytes()
        certified = _fill(diagonal - s, couplings, layout, rest, width)
        assert certified.tobytes() == at_shift[head:, :width, :width].tobytes()
    picked = [block for block, keep in zip(range(cutoff + 3), kept) if keep]
    if picked:
        for width in (2 * cutoff + 2, layout.dims[picked].max()):
            gapped = _fill(diagonal, couplings, layout, picked, width)
            assert gapped.tobytes() == reference[picked, :width, :width].tobytes(), width
            gapped = _fill(diagonal - s, couplings, layout, picked, width)
            assert gapped.tobytes() == at_shift[picked, :width, :width].tobytes(), width
    assert ceiling.tobytes() == reference.diagonal(axis1=1, axis2=2).max().tobytes()
    # lowest_levels reads the levels off the padded eigenvalues, which holds
    # because every padding eigenvalue lies above every level of the head.
    if np.isfinite(ceiling):
        values = np.linalg.eigvalsh(stack)
        padding = np.arange(stack.shape[-1]) >= layout.dims[first:head, None]
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            report = spectrum_report(params, cutoff, num_states)
        except StateOrderingError:
            return
        if cutoff == 0:
            with pytest.raises(ValueError, match="--cutoff must be >= 1, got 0"):
                cmd_spectrum(args, params)
        else:
            _, lines, _ = cmd_spectrum(args, params)
    assert_same_levels(report.levels, levels, tol=0.0)
    assert np.array_equal(report.levels.residuals, levels.residuals)
    assert len(report.labels) == num_states
    if cutoff == 0:
        return
    # The column header comes before the rows, delta after.
    rows = [line.split(",") for line in "".join(lines).splitlines()[1:-1]]
    assert [row[5] for row in rows] == [f"{w:.6f}" for w in levels.character[:, 2]]


@settings(max_examples=150, deadline=None)
@given(
    params=PARAMS | DECOUPLED,
    cutoff=st.integers(0, 20),
    num_states=st.integers(1, 2 * 21 * 22),
)
# Every level at the fitting cutoff: _observables takes the 32 columns of a
# block in one pass, beyond its budget of 18.
@example(params=SIV, cutoff=15, num_states=2 * 16 * 17)
def test_pruned_sectors_match_every_sector(params, cutoff, num_states):
    # A request beyond the dimension wraps round, so that every count from
    # one level to every level is drawn at every cutoff.
    num_states = 1 + (num_states - 1) % (2 * (cutoff + 1) * (cutoff + 2))
    levels = lowest_levels(params, cutoff, num_states)
    assert_same_levels(levels, every_sector_levels(params, cutoff, num_states))


def spectator_labels(j):
    """Sorted (J, parity) of the four levels that an E x e level j > 0 gives
    when the e_g hole is a spectator: J = +-j +- 1/2, and at J = 0 one level
    of either parity."""
    high, low = int(j + 0.5), int(j - 0.5)
    pair = [(0, -1), (0, 1)] if low == 0 else [(-low, 0), (low, 0)]
    return sorted([(-high, 0), (high, 0), *pair])


def assert_spectator_levels(levels, hbar_omega, f_u, cutoff):
    """levels, of PjtParams(hbar_omega, 0, 0, 0, f_u), are the E x e levels
    of exe_levels, each fourfold, within the resolution, with the J and
    parity of spectator_labels in every run of levels closer than twice the
    resolution that the request holds whole."""
    energies, j = exe_levels(hbar_omega, f_u, cutoff)
    fourfold = np.repeat(energies, 4)
    count = len(levels.energies)
    assert np.abs(levels.energies - fourfold[:count]).max() <= levels.resolution
    # Within a run rounding orders the levels, so only the run's labels are
    # fixed; the runs' energies lie more than twice the resolution apart, so
    # the request holds each run at the same places as the reference.
    ends = np.append(np.flatnonzero(np.diff(fourfold) > 2 * levels.resolution) + 1, fourfold.size)
    labels = [label for value in j for label in spectator_labels(value)]
    ours = list(zip(levels.j.tolist(), levels.parity.tolist()))
    start = 0
    for end in ends[ends <= count]:
        assert sorted(ours[start:end]) == sorted(labels[start:end]), (start, end)
        start = end


@settings(max_examples=60, deadline=None)
@given(
    hbar_omega=st.floats(20.0, 150.0),
    ratio=st.floats(0.0, 5.0),
    cutoff=st.integers(0, 40),
    quartets=st.integers(1, 12),
)
@example(hbar_omega=70.0, ratio=300.0 / 70.0, cutoff=40, quartets=12)
@example(hbar_omega=80.0, ratio=0.0, cutoff=15, quartets=12)
def test_spectator_levels_are_e_x_e_levels(hbar_omega, ratio, cutoff, quartets):
    # With f_g = Lambda = Xi = 0 the model is E x e times a spectator, which
    # exe_levels solves in sectors of half-integer j, apart from sectors.py.
    f_u = ratio * hbar_omega
    num_states = min(4 * quartets, 2 * (cutoff + 1) * (cutoff + 2))
    levels = lowest_levels(PjtParams(hbar_omega, 0.0, 0.0, 0.0, f_u), cutoff, num_states)
    assert_spectator_levels(levels, hbar_omega, f_u, cutoff)


def test_strong_coupling_spectator_levels_at_cutoff_200():
    # E_JT = f_u^2 / (2 hbar_omega) = 642.857 meV: the levels j = 1/2, 3/2
    # and 5/2 of the trough's rotor, each fourfold. Only the six blocks of
    # the first head and the odd half, which joins alone, go through eigh.
    levels = lowest_levels(PjtParams(70.0, 0.0, 0.0, 0.0, 300.0), 200, 12)
    expected = np.repeat([-607.336322, -603.208713, -595.144121], 4)
    assert np.abs(levels.energies - expected).max() < 5e-7
    assert_spectator_levels(levels, 70.0, 300.0, 200)


def recorded_eigh_stacks(monkeypatch):
    """Copies of the stacks of every np.linalg.eigh call from now on."""
    stacks = []
    eigh = np.linalg.eigh

    def recording(stack):
        stacks.append(stack.copy())
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return stacks


def test_first_head_is_the_even_half_and_the_lowest_pairs(monkeypatch):
    # At 8 levels: the even half of sector 0 and sectors 1 .. 3. The odd
    # half and the sectors from 4 on are certified.
    stacks = recorded_eigh_stacks(monkeypatch)
    levels = lowest_levels(SIV, 60, 8)
    assert [stack.shape for stack in stacks] == [(4, 122, 122)]
    monkeypatch.undo()
    assert_same_levels(levels, every_sector_levels(SIV, 60, 8))


def recorded_certificates(monkeypatch, fail_all=False):
    """Block counts of every certificate from now on, each of which fails
    every block if fail_all."""
    counts = []
    below = sectors._below

    def recording(stack):
        counts.append(len(stack))
        return np.ones(len(stack), dtype=bool) if fail_all else below(stack)

    monkeypatch.setattr(sectors, "_below", recording)
    return counts


def test_failed_certification_adds_the_next_sector(monkeypatch):
    # Draws whose eighth level lies in sector 4, each with the block counts
    # of its certificates.
    draws = [
        # Of the 14 blocks outside the head only sector 4 fails the first
        # certificate. It joins alone, and the 13 blocks that passed are not
        # certified again: 14 block factorizations.
        (PjtParams(69.8, 77.4, 44.6, 101.0, 117.7), [14]),
        # Sectors 4 and 5 and the odd half fail the first certificate. Sector
        # 4 joins alone, and the gapped pair of sector 5 and the odd half,
        # filled into one stack and certified again, passes.
        (PjtParams(79.7, 23.9, 3.2, 7.8, 307.4), [14, 2]),
    ]
    for params, tested in draws:
        stacks = recorded_eigh_stacks(monkeypatch)
        certified = recorded_certificates(monkeypatch)
        levels = lowest_levels(params, 15, 8)
        monkeypatch.undo()
        assert [stack.shape for stack in stacks] == [(4, 32, 32), (1, 32, 32)]
        assert certified == tested
        reference = fill(params, _blocks(15))
        assert np.concatenate(stacks).tobytes() == reference[:5].tobytes()
        assert np.abs(levels.j).max() == 4
        assert_same_levels(levels, every_sector_levels(params, 15, 8))


def test_failed_odd_half_joins_alone(monkeypatch):
    # The spectator case at 12 levels: the head is the even half and sectors
    # 1 .. 5, and of the 57 blocks outside it only the odd half fails the
    # first certificate. It joins alone, and the 56 sectors that passed are
    # not certified again: 57 block factorizations.
    params = PjtParams(70.0, 0.0, 0.0, 0.0, 300.0)
    stacks = recorded_eigh_stacks(monkeypatch)
    certified = recorded_certificates(monkeypatch)
    levels = lowest_levels(params, 60, 12)
    monkeypatch.undo()
    assert [len(stack) for stack in stacks] == [6, 1]
    assert certified == [57]
    reference = fill(params, _blocks(60))
    assert np.concatenate(stacks).tobytes() == reference[[0, 1, 2, 3, 4, 5, -1]].tobytes()
    assert_same_levels(levels, every_sector_levels(params, 60, 12))


@pytest.mark.parametrize("cutoff", [15, 40])
def test_failed_certification_grows_the_head(monkeypatch, cutoff):
    # In the decoupled limit the Eu levels of shell 1 tie across both halves
    # of sector 0 and sector 2, so at 8 levels the odd half, alone of the
    # blocks outside the head, fails the first certificate. It joins the head
    # alone, padded to 2N + 2, and the sectors from 4 on, which passed, are
    # not certified again. The ties resolve as in the reference.
    params = decoupled(80.0, 10.0)
    stacks = recorded_eigh_stacks(monkeypatch)
    certified = recorded_certificates(monkeypatch)
    levels = lowest_levels(params, cutoff, 8)
    monkeypatch.undo()
    assert [len(stack) for stack in stacks] == [4, 1]
    assert certified == [cutoff - 1]
    reference = fill(params, _blocks(cutoff))
    assert np.concatenate(stacks).tobytes() == reference[[0, 1, 2, 3, -1]].tobytes()
    assert_same_levels(levels, every_sector_levels(params, cutoff, 8))


@pytest.mark.parametrize("params", [SIV, decoupled(80.0, 10.0)], ids=["SiV", "decoupled"])
@pytest.mark.parametrize("cutoff", [15, 40])
def test_failing_certificates_diagonalize_every_block_once(monkeypatch, params, cutoff):
    # With every verdict a failure, the N - 1 blocks outside the first head
    # of four join one at a time, J ascending and the odd half last, and each
    # certificate tests only the blocks that have not joined. Each block
    # reaches eigh once, padded to 2N + 2, and the levels are those of the
    # reference.
    stacks = recorded_eigh_stacks(monkeypatch)
    certified = recorded_certificates(monkeypatch, fail_all=True)
    levels = lowest_levels(params, cutoff, 8)
    monkeypatch.undo()
    assert [len(stack) for stack in stacks] == [4] + [1] * (cutoff - 1)
    assert certified == list(range(cutoff - 1, 0, -1))
    reference = fill(params, _blocks(cutoff))
    assert np.concatenate(stacks).tobytes() == reference.tobytes()
    assert_same_levels(levels, every_sector_levels(params, cutoff, 8))


@settings(max_examples=100, deadline=None)
@given(
    params=PARAMS | DECOUPLED,
    cutoff=st.integers(0, 30),
    start=st.integers(1, 32),
    pick=st.integers(0, 64),
)
@example(params=PjtParams(75.9, 10.0, 5.0, 5.0, 8.0), cutoff=15, start=5, pick=3)
@example(params=decoupled(80.0, 10.0), cutoff=15, start=1, pick=2)
def test_certificate_matches_eigvalsh_at_the_shift(params, cutoff, start, pick):
    # One verdict per block of a stack filled at a shift, as lowest_levels
    # fills a certificate: whether the block has a level at or below the
    # shift, which lies between two consecutive block minima, or below or
    # above all of them, as pick chooses. _below factors the stack in place.
    # This pins numpy's private Cholesky gufunc, which _below calls.
    total = cutoff + 3
    blocks = range(min(start, total - 2), total)
    layout = _blocks(cutoff)
    diagonal, couplings, ceiling = _elements(params, layout)
    width = layout.dims[blocks].max()
    lowest = np.linalg.eigvalsh(_fill(diagonal, couplings, layout, blocks, width))[:, 0]
    # Midpoints of the gaps between distinct minima, each at least margin
    # from every minimum, which is far beyond the rounding of a factorization.
    margin = 1e-6 * ceiling
    ends = [lowest.min() - 4 * margin], np.unique(lowest), [lowest.max() + 4 * margin]
    bounds = np.concatenate(ends)
    shifts = ((bounds[:-1] + bounds[1:]) / 2)[np.diff(bounds) > 2 * margin]
    shift = shifts[pick % len(shifts)]
    stack = _fill(diagonal - shift, couplings, layout, blocks, width)
    filled = stack.copy()
    below = _below(stack)
    assert below.tolist() == (lowest <= shift).tolist()
    # A block that fails is NaN. One that passes holds its lower factor L,
    # and L L^T is the filled block to the rounding of a factorization: each
    # entry of |L| |L^T| is at most the block's largest diagonal entry.
    assert np.isnan(stack[below]).all()
    factors, passing = stack[~below], filled[~below]
    assert (np.triu(factors, 1) == 0).all()
    error = np.abs(factors @ factors.transpose(0, 2, 1) - passing)
    scale = np.abs(passing).max(axis=(1, 2), keepdims=True)
    assert (error <= 2 * (width + 1) * np.finfo(float).eps * scale).all()


def test_cached_layout_is_read_only():
    # Every field, so that one added later cannot stay writable.
    layout = _blocks(15)
    assert _blocks(15) is layout
    for field in dataclasses.fields(_Layout):
        value = getattr(layout, field.name)
        for array in value if isinstance(value, tuple) else (value,):
            assert isinstance(array, np.ndarray), field.name
            assert not array.flags.writeable, field.name


def test_a_repeated_cutoff_ladder_builds_no_layout():
    converge_cutoff(SIV, [20, 30, 40], 8)
    layouts = _blocks.cache_info().misses
    converge_cutoff(SIV, [20, 30, 40], 8)
    assert _blocks.cache_info().misses == layouts


def test_fill_makes_no_second_stack():
    # A head of six blocks at 2N + 2, the rest at its own width, and failed
    # blocks with gaps between them, as they join, at 2N + 2.
    layout = _blocks(80)
    diagonal, couplings, _ = _elements(SIV, layout)
    gapped = [*range(6, 30, 3), *range(40, 60), 82]
    for blocks, width in [(range(6), 162), (range(6, 83), layout.dims[6:].max()), (gapped, 162)]:
        tracemalloc.start()
        try:
            stack = _fill(diagonal, couplings, layout, blocks, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * stack.nbytes, blocks


def test_lowest_levels_memory_at_the_fitting_cutoff():
    # The padded head, the certified blocks at their own width and eigh's
    # vectors; the blocks are cached by the first call, as in a fit.
    lowest_levels(SIV, 15, 8)
    tracemalloc.start()
    try:
        lowest_levels(SIV, 15, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * 2**10


def warm_peak(params, cutoff, num_states):
    """Tracemalloc peak of a lowest_levels call whose blocks are cached, as in
    a fit, over the stack of all N + 3 blocks that check_cutoff bounds."""
    lowest_levels(params, cutoff, num_states)
    tracemalloc.start()
    try:
        lowest_levels(params, cutoff, num_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((cutoff + 3) * (2 * cutoff + 2) ** 2 * 8)


def test_failed_certification_memory():
    # The head is the even half alone. Of the blocks outside it only sector 1
    # fails the certificate, and it joins the head in a second round.
    assert warm_peak(decoupled(80.0, 10.0), 60, 1) < 2.5


@settings(max_examples=20, deadline=None)
@given(
    params=PARAMS | DECOUPLED,
    cutoff=st.integers(20, 60),
    num_states=st.integers(1, 2 * 61 * 62),
)
@example(params=SIV, cutoff=60, num_states=8)
@example(params=decoupled(80.0, 10.0), cutoff=60, num_states=8)
@example(params=SIV, cutoff=20, num_states=2 * 21 * 22)
@example(params=SIV, cutoff=30, num_states=2 * 31 * 32)
@example(params=SIV, cutoff=40, num_states=2 * 41 * 42)
def test_lowest_levels_memory_over_random_requests(params, cutoff, num_states):
    # The bound of test_failed_certification_memory over random requests of
    # up to every level, where _observables forms weights and residuals for
    # every column of every block.
    num_states = min(num_states, 2 * (cutoff + 1) * (cutoff + 2))
    assert warm_peak(params, cutoff, num_states) < 2.5


@settings(max_examples=20, deadline=None)
@given(params=DECOUPLED, cutoff=st.integers(10, 60))
@example(params=decoupled(80.0, 10.0), cutoff=10)
@example(params=decoupled(80.0, 10.0), cutoff=60)
def test_growing_head_memory(params, cutoff):
    # Decoupled draws tie the eighth level across the halves of sector 0, so
    # the odd half fails the certificate and joins the head in a second round,
    # and no round keeps the stack or the eigenvectors of another.
    assert warm_peak(params, cutoff, 8) < 2.0


@pytest.mark.parametrize(
    "params", [*PRESETS.values(), decoupled(80.0, 10.0)], ids=[*PRESETS, "decoupled"]
)
def test_few_levels_memory(params):
    # _below factors each certificate in place, so a request for a few
    # levels holds no copy of the certificate stack beside it.
    for num_states in range(1, 9):
        assert warm_peak(params, 60, num_states) < 1.1, num_states


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


@settings(max_examples=100, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20), num_states=st.integers(1, 40))
def test_characters_are_weights_of_one_level(params, cutoff, num_states):
    # Each row (w_a2u, w_a1u, w_eu) splits a unit vector, to rounding: a
    # nearly decoupled level puts up to 1 + 2.2e-15 on one component. A
    # half of sector 0 holds no slot of the other half's A state, so its
    # levels carry none of that weight, exactly.
    num_states = min(num_states, 2 * (cutoff + 1) * (cutoff + 2))
    levels = lowest_levels(params, cutoff, num_states)
    character = levels.character
    assert character.min() >= 0.0
    assert character.max() < 1.0 + 1e-13
    assert np.abs(character.sum(axis=1) - 1.0).max() < 1e-13
    zero = levels.j == 0
    assert np.all(character[zero & (levels.parity == 1), 1] == 0.0)
    assert np.all(character[zero & (levels.parity == -1), 0] == 0.0)


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
    "cutoff, num_states, message",
    [(-1, 1, "cutoff must be >= 0, got -1"), (5, 0, "num_states must be >= 1, got 0")],
)
def test_negative_cutoff_or_no_levels_refused(cutoff, num_states, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        lowest_levels(SIV, cutoff, num_states)


def test_cutoffs_above_201_refused_before_allocating():
    # The ceiling the README states: 256 MiB of sector matrices.
    assert check_cutoff(201, 8) == (201, 8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            check_cutoff(202, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "cutoff 202 needs 258 MiB of sector matrices, beyond the 256 MiB limit"
    )
    assert peak < 2**16


def test_refusal_rounds_the_mib_up():
    # One byte beyond the limit reads as beyond it, not as 256 MiB.
    check_bytes(sectors.MAX_DENSE_BYTES, "request", "bytes")
    with pytest.raises(ValueError) as refused:
        check_bytes(sectors.MAX_DENSE_BYTES + 1, "request", "bytes")
    assert str(refused.value) == "request needs 257 MiB of bytes, beyond the 256 MiB limit"


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: converge_cutoff(SIV, [5.7, 10.2], 3), "cutoffs[0]", 5.7),
        (lambda: converge_cutoff(SIV, [5, 10], 3.0), "num_states", 3.0),
        (lambda: converge_cutoff(SIV, [5, 10], 1.0), "num_states", 1.0),
        (lambda: lowest_levels(SIV, 5.5, 3), "cutoff", 5.5),
        (lambda: lowest_levels(SIV, 10, 8.0), "num_states", 8.0),
        (lambda: check_cutoff(15, "3"), "num_states", "3"),
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
    # overflow the sizes _fill works with, and _blocks would cache what it
    # builds from one under the key of the equal plain int, for the plain
    # call to find afterwards. check_cutoff hands back the plain ints that
    # lowest_levels works with.
    checked = check_cutoff(np.int8(3), np.uint8(5))
    assert checked == (3, 5)
    assert [type(value) for value in checked] == [int, int]
    checked = check_cutoff(np.int16(3), 1)
    assert checked == (3, 1)
    assert [type(value) for value in checked] == [int, int]
    plain = lowest_levels(SIV, 3, 5)
    plain_delta = spectrum_report(SIV, 60, 8).delta
    _blocks.cache_clear()
    for kind in (np.int8, np.int16, np.uint8, np.int64):
        assert_same_levels(lowest_levels(SIV, kind(3), kind(5)), plain, tol=0.0)
    assert spectrum_report(SIV, np.uint8(60), np.int16(8)).delta == plain_delta
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


def report_or_refusal(params, cutoff, num_states):
    """spectrum_report's report, or None where it refuses the level pattern."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            return spectrum_report(params, cutoff, num_states)
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


@settings(max_examples=150, deadline=None)
@given(params=PARAMS | DECOUPLED, cutoff=st.integers(0, 20), exponent=st.floats(-300.0, 300.0))
@example(params=SIV, cutoff=15, exponent=5.0)
@example(params=SIV, cutoff=15, exponent=-16.0)
@example(params=SIV, cutoff=15, exponent=300.0)
def test_delta_scales_with_the_energies(params, cutoff, exponent):
    # spectrum_report promises that the delta of s * params is s times that
    # of params, to the resolution, and that both are refused or neither.
    scale = 10.0**exponent
    num_states = min(8, 2 * (cutoff + 1) * (cutoff + 2))
    levels = lowest_levels(params, cutoff, num_states)
    # A ground level within a few resolutions of the next may tie with it
    # on one side only.
    assume(not 0.25 < (levels.energies[1] - levels.energies[0]) / levels.resolution < 4.0)
    report = report_or_refusal(params, cutoff, num_states)
    big = report_or_refusal(scaled(params, scale), cutoff, num_states)
    assert (report is None) == (big is None)
    if report is not None:
        assert abs(big.delta - scale * report.delta) <= big.levels.resolution


HUGE = PjtParams(7.59e307, 7.83e307, 4.5e307, 9.5e307, 1.03e308)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lowest_levels(HUGE, 15, 8),
        lambda: cmd_spectrum(
            argparse.Namespace(command="spectrum", cutoff=15, states=8, output=None), HUGE
        ),
        lambda: spectrum_report(HUGE, 15),
    ],
)
def test_matrix_beyond_float_range_refused_before_eigh(monkeypatch, call):
    stacks = recorded_eigh_stacks(monkeypatch)
    with pytest.raises(ValueError, match="matrix elements at cutoff 15 are beyond the float range"):
        call()
    assert stacks == []


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
