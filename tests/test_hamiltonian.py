"""Electronic blocks, full assembly, classical sheets, and channel energies."""

import decimal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pjtdiag import (
    PRESETS,
    PjtParams,
    classical_apes,
    couplings_from_ejt,
    ejt_from_couplings,
)
from reference import (
    SYMMETRY_LABELS,
    SYMMETRY_TRANSFORM,
    assemble,
    build_basis,
    pjt_coupling_block,
    w_matrix,
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
# Mixed signs, both zeros, and the degenerate origin.
COORDINATES = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0]))


def random_params(rng):
    return PjtParams(
        hbar_omega=float(rng.uniform(20.0, 150.0)),
        lambda_corr=float(rng.uniform(0.0, 150.0)),
        xi_corr=float(rng.uniform(0.0, 100.0)),
        f_g=float(rng.uniform(0.0, 150.0)),
        f_u=float(rng.uniform(0.0, 150.0)),
    )


def test_params_reject_nonpositive_quantum():
    with pytest.raises(ValueError, match="hbar_omega"):
        PjtParams(hbar_omega=0.0, lambda_corr=1.0, xi_corr=1.0, f_g=1.0, f_u=1.0)


def test_params_reject_negative_coupling():
    with pytest.raises(ValueError, match="f_g"):
        PjtParams(hbar_omega=75.9, lambda_corr=78.3, xi_corr=45.0, f_g=-1.0, f_u=103.0)


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        PjtParams(hbar_omega=float("nan"), lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=0.0)


def test_params_coerce_to_float():
    params = PjtParams(hbar_omega=75, lambda_corr=78, xi_corr=45, f_g=95, f_u=103)
    assert isinstance(params.hbar_omega, float)
    assert params.f_u == 103.0


def test_symmetry_transform_is_orthogonal():
    u = SYMMETRY_TRANSFORM
    assert np.allclose(u @ u.T, np.eye(4), atol=1e-15)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-15)


def test_symmetry_transform_rows():
    u = SYMMETRY_TRANSFORM
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(u[0], [s, 0.0, 0.0, s])
    assert np.allclose(u[1], [0.0, s, -s, 0.0])
    assert np.allclose(u[2], [-s, 0.0, 0.0, s])
    assert np.allclose(u[3], [0.0, s, s, 0.0])
    assert SYMMETRY_LABELS == ("A2u", "A1u", "Eux", "Euy")
    assert not u.flags.writeable


def test_w_matrix_eigenvalues_siv():
    values = np.linalg.eigvalsh(w_matrix(SIV))
    assert np.allclose(values, [-78.3, -45.0, -45.0, 78.3], atol=1e-12)


def test_w_matrix_eigenvalues_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        params = random_params(rng)
        values = np.sort(np.linalg.eigvalsh(w_matrix(params)))
        expected = np.sort(
            [params.lambda_corr, -params.lambda_corr, -params.xi_corr, -params.xi_corr]
        )
        assert np.allclose(values, expected, atol=1e-10)


def test_w_matrix_vanishes_without_correlation():
    params = PjtParams(hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=95.0, f_u=103.0)
    assert np.all(w_matrix(params) == 0.0)


def test_w_matrix_diagonal_in_symmetry_basis():
    u = SYMMETRY_TRANSFORM
    rotated = u @ w_matrix(SIV) @ u.T
    assert np.allclose(rotated, np.diag([-78.3, 78.3, -45.0, -45.0]), atol=1e-12)


def test_x_coupling_block_diagonal():
    block = pjt_coupling_block(SIV, "X")
    assert np.allclose(block, np.diag([198.0, -8.0, 8.0, -198.0]), atol=1e-12)


def test_x_coupling_block_equal_couplings():
    params = PjtParams(hbar_omega=50.0, lambda_corr=0.0, xi_corr=0.0, f_g=70.0, f_u=70.0)
    block = pjt_coupling_block(params, "X")
    assert np.allclose(block, np.diag([140.0, 0.0, 0.0, -140.0]), atol=1e-12)


def test_y_coupling_block_structure():
    block = pjt_coupling_block(SIV, "Y")
    assert np.allclose(block, block.T, atol=1e-15)
    assert np.all(block.diagonal() == 0.0)
    assert block[0, 1] == 103.0
    assert block[2, 3] == 103.0
    assert block[0, 2] == 95.0
    assert block[1, 3] == 95.0
    assert block[0, 3] == 0.0
    assert block[1, 2] == 0.0


def test_coupling_block_validation():
    with pytest.raises(ValueError):
        pjt_coupling_block(SIV, "Q")


def test_assembled_dimension():
    assert assemble(SIV, build_basis(15)).dimension == 544
    assert assemble(SIV, build_basis(0)).dimension == 4


def test_assembled_exactly_symmetric():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = random_params(rng)
        cutoff = int(rng.integers(0, 6))
        h = assemble(params, build_basis(cutoff))
        assert abs(h.matrix - h.matrix.T).max() == 0.0


def test_vacuum_block_is_w_plus_zero_point():
    basis = build_basis(2)
    h = assemble(SIV, basis).matrix
    vacuum = basis.index[(0, 0)]
    rows = [k * basis.size + vacuum for k in range(4)]
    block = h[np.ix_(rows, rows)]
    assert np.allclose(block, w_matrix(SIV) + SIV.hbar_omega * np.eye(4), atol=1e-12)


def test_decoupled_limit_shell_multiplicities():
    params = PjtParams(hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=0.0)
    h = assemble(params, build_basis(5))
    energies = np.linalg.eigvalsh(h.matrix)
    shells = np.round(energies / params.hbar_omega).astype(int)
    assert np.allclose(energies, shells * params.hbar_omega, atol=1e-9)
    values, counts = np.unique(shells, return_counts=True)
    assert list(values) == [1, 2, 3, 4, 5, 6]
    assert list(counts) == [4, 8, 12, 16, 20, 24]


def test_coupled_ground_drops_below_electronic_floor():
    h = assemble(SIV, build_basis(8))
    ground = np.linalg.eigvalsh(h.matrix)[0]
    # without vibronic coupling the lowest level would sit at -78.3 + 75.9
    assert ground < -78.3 + 75.9


def test_spectrum_symmetric_under_coupling_swap_without_correlation():
    a = PjtParams(hbar_omega=60.0, lambda_corr=0.0, xi_corr=0.0, f_g=40.0, f_u=90.0)
    b = PjtParams(hbar_omega=60.0, lambda_corr=0.0, xi_corr=0.0, f_g=90.0, f_u=40.0)
    basis = build_basis(6)
    ea = np.linalg.eigvalsh(assemble(a, basis).matrix)
    eb = np.linalg.eigvalsh(assemble(b, basis).matrix)
    assert np.allclose(ea, eb, atol=1e-9)


def test_classical_apes_origin():
    point = classical_apes(SIV, 0.0, 0.0)
    assert np.allclose(point.energies, [-78.3, -45.0, -45.0, 78.3], atol=1e-12)


def test_classical_apes_rejects_nonfinite():
    with pytest.raises(ValueError):
        classical_apes(SIV, float("inf"), 0.0)
    # Finite coordinates whose sheet energies overflow are refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(1e\+200, 0.0\) are beyond the float range"):
            classical_apes(SIV, 1e200, 0.0)
        with pytest.raises(ValueError, match="float range"):
            classical_apes(SIV, [0.0, -1e200], 0.0)
        assert np.isfinite(classical_apes(SIV, 2e153, 0.0).energies).all()


def test_classical_apes_keeps_finite_sheets_of_huge_terms():
    # Refused only where a sheet energy overflows: the row sums of these
    # matrices exceed the float range, their sheets do not.
    a = np.hypot(1e8, 1e8) * 1e300
    point = classical_apes(PjtParams(1.0, 0.0, 0.0, 0.0, 1e300), 1e8, 1e8)
    assert np.array_equal(point.energies, [-a, -a, a, a])
    assert np.array_equal(point.characters[0], [0.5, 0.0, 0.5])
    # Here g + |h| overflows in the (A1u, Euy) block, but not its sheets: the
    # lower one still carries (1 - |h| / g) / 2 on A1u.
    point = classical_apes(PjtParams(1.0, 0.8e308, 0.8e308, 0.0, 1e154), 1e154, 0.0)
    assert np.isfinite(point.energies).all()
    minority = 0.5 * (1.0 - 0.8 / np.hypot(0.8, 1.0))
    assert point.characters[1] == pytest.approx([0.0, minority, 1.0 - minority], rel=1e-12)


def test_classical_apes_scalar_shapes():
    point = classical_apes(SIV, 1, -0.5)
    assert point.energies.shape == (4,)
    assert point.characters.shape == (4, 3)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    params=PARAMS,
    points=st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=12),
    scalar_y=st.booleans(),
)
def test_stacked_sheets_equal_scalar_calls_bitwise(params, points, scalar_y):
    x = np.array([p[0] for p in points])
    y = points[0][1] if scalar_y else np.array([p[1] for p in points])
    stacked = classical_apes(params, x, y)
    assert stacked.energies.shape == (len(points), 4)
    for k in range(len(points)):
        y_k = y if scalar_y else y[k]
        single = classical_apes(params, x[k], y_k)
        assert same_bits(stacked.energies[k], single.energies)
        assert same_bits(stacked.characters[k], single.characters)


def test_classical_apes_grid_keeps_coordinate_shape():
    x, y = np.meshgrid(np.linspace(-2.0, 2.0, 3), np.linspace(-1.0, 1.0, 2))
    grid = classical_apes(SIV, x, y)
    assert grid.energies.shape == (2, 3, 4)
    assert grid.characters.shape == (2, 3, 4, 3)
    assert same_bits(grid.energies[1, 2], classical_apes(SIV, 2.0, 1.0).energies)


def test_sheet_scan_of_no_points_is_empty():
    scan = classical_apes(SIV, [], 0.0)
    assert scan.energies.shape == (0, 4)
    assert scan.characters.shape == (0, 4, 3)


def test_sheet_scan_origin_characters():
    scan = classical_apes(SIV, [0.0], 0.0)
    characters = scan.characters[0]
    assert np.allclose(scan.energies[0], [-78.3, -45.0, -45.0, 78.3], atol=1e-9)
    assert np.allclose(characters[0], [1.0, 0.0, 0.0], atol=1e-12)
    assert characters[1][2] == pytest.approx(1.0, abs=1e-12)
    assert characters[2][2] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(characters[3], [0.0, 1.0, 0.0], atol=1e-12)


def test_sheet_scan_large_distortion_limit():
    classical = (SIV.f_g + SIV.f_u) / SIV.hbar_omega
    lowest_sheet = classical_apes(SIV, [3.0 * classical, 6.0 * classical], 0.0).characters[:, 0]
    assert lowest_sheet.shape == (2, 3)
    assert (np.abs(lowest_sheet[:, 0] - 0.5) < 0.01).all()
    assert (lowest_sheet[:, 1] < 1e-9).all()


def test_sheet_scan_even_in_x():
    grid = np.linspace(-4.0, 4.0, 17)
    energies = classical_apes(SIV, grid, 0.0).energies
    assert energies.shape == (17, 4)
    assert np.allclose(energies, energies[::-1], atol=1e-10)


def test_sheet_scan_minimum_reaches_channel_depth():
    grid = np.linspace(-4.0, 4.0, 81)
    for name, params in PRESETS.items():
        e_jt1, _ = ejt_from_couplings(params)
        lowest = classical_apes(params, grid, 0.0).energies[:, 0].min()
        assert lowest <= -e_jt1, name


@pytest.mark.parametrize(
    "x, y, message",
    [
        ([0.0, 1.0, 1e200, 2.0, np.inf], 0.0,
         r"sheet energies at \(1e\+200, 0.0\) are beyond the float range"),
        ([0.0, -1.5, np.inf, 1e200], 0.0, r"coordinates must be finite, got \(inf, 0.0\)"),
        ([0.0, 1.0, 2.0], [0.5, np.nan, 1e200],
         r"coordinates must be finite, got \(1.0, nan\)"),
        ([[0.0, 1.0], [-1e200, 2.0]], 0.0,
         r"sheet energies at \(-1e\+200, 0.0\) are beyond the float range"),
    ],
)
def test_stacked_sheets_name_the_first_refused_point(x, y, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            classical_apes(SIV, np.array(x), y)


def test_classical_apes_rotation_invariance():
    radius = 1.7
    reference = classical_apes(SIV, radius, 0.0).energies
    for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        point = classical_apes(SIV, radius * np.cos(angle), radius * np.sin(angle))
        assert np.allclose(point.energies, reference, atol=1e-9)


# Draws with the degeneracies of the closed form: equal correlations, equal
# or vanishing couplings.
CORRELATIONS = st.one_of(
    st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 100.0)),
    st.floats(0.0, 150.0).map(lambda v: (v, v)),
    st.just((0.0, 0.0)),
)
COUPLINGS = st.one_of(
    st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 150.0)),
    st.floats(0.0, 150.0).map(lambda v: (v, v)),
    st.just((0.0, 0.0)),
)
SHEET_PARAMS = st.builds(
    lambda hbar_omega, corr, coupling: PjtParams(hbar_omega, *corr, *coupling),
    st.floats(20.0, 150.0),
    CORRELATIONS,
    COUPLINGS,
)
ZERO = st.sampled_from([0.0, -0.0])
# Up to 1e153 a coordinate stays below the overflow refusal at every quantum
# drawn here; at 3e153 the lift would overflow.
HUGE = st.sampled_from([1e153, -1e153, 3e152])
SHEET_POINTS = st.one_of(
    st.tuples(COORDINATES, COORDINATES),
    st.tuples(st.floats(-6.0, -1e-3), ZERO),
    st.tuples(ZERO, st.floats(-6.0, 6.0).filter(lambda v: v != 0.0)),
    st.tuples(HUGE, st.one_of(ZERO, HUGE, st.floats(-6.0, 6.0))),
)


@settings(max_examples=300, deadline=None)
@given(params=SHEET_PARAMS, point=SHEET_POINTS)
@example(params=PjtParams(75.9, 0.0, 0.0, 0.0, 0.0), point=(0.0, 0.0))
@example(params=PjtParams(75.9, 50.0, 50.0, 80.0, 80.0), point=(-0.0, 0.0))
@example(params=PjtParams(75.9, 50.0, 50.0, 95.0, 103.0), point=(0.0, -1.5))
@example(params=SIV, point=(2e153, 0.0))
@example(params=PjtParams(112.0, 26.9, 26.9, 0.0, 0.0), point=(5e-324, 5e-324))
def test_classical_apes_matches_independent_eigh(params, point):
    x, y = point
    matrix = (
        0.5 * params.hbar_omega * (x * x + y * y) * np.eye(4)
        + x * pjt_coupling_block(params, "X")
        + y * pjt_coupling_block(params, "Y")
        + w_matrix(params)
    )
    # The row-sum bound of the sheet matrix.
    scale = (
        0.5 * params.hbar_omega * (x * x + y * y)
        + (abs(x) + abs(y)) * (params.f_g + params.f_u)
        + params.lambda_corr
        + params.xi_corr
    )
    # The smallest normal float covers subnormal parameters, where w_matrix
    # rounds 0.5 * lambda_corr and the reference matrix is itself one
    # subnormal step off.
    tolerance = 1e-12 * scale + np.finfo(float).tiny
    expected, vectors = np.linalg.eigh(matrix)
    sheets = classical_apes(params, x, y)
    energies, characters = sheets.energies, sheets.characters
    assert np.all(np.diff(energies) >= 0.0)
    assert np.abs(energies - expected).max() <= tolerance
    assert np.abs(characters.sum(axis=-1) - 1.0).max() <= 1e-15
    # Every sheet lies in the (A2u, Eu) or in the (A1u, Eu) plane.
    assert not (characters[:, 0] * characters[:, 1]).any()
    # Within a chain of sheets closer than 1e-6 of the scale eigh may return
    # any basis, but the summed weights of the chain are those of its
    # eigenspace. Beyond the chain, eigh's error in that eigenspace is about
    # eps * scale / gap < 2.2e-10. Subnormal parameters chain every sheet,
    # since the reference matrix is itself off by a subnormal step.
    squares = (SYMMETRY_TRANSFORM @ vectors) ** 2
    weights = np.column_stack([squares[0], squares[1], squares[2] + squares[3]])
    chains = np.flatnonzero(np.diff(energies) > 1e-6 * scale + np.finfo(float).tiny) + 1
    for ours, theirs in zip(np.split(characters, chains), np.split(weights, chains)):
        assert np.abs(ours.sum(axis=0) - theirs.sum(axis=0)).max() <= 1e-9


@settings(max_examples=300, deadline=None)
@given(params=SHEET_PARAMS, point=SHEET_POINTS)
def test_classical_apes_characters_invariant_under_rotation(params, point):
    # The A2u, A1u and pooled Eu weights of a sheet are invariant under J,
    # and the closed form reads them off rho alone.
    x, y = point
    turned = classical_apes(params, x, y)
    reference = classical_apes(params, np.hypot(x, y), 0.0)
    assert same_bits(turned.characters, reference.characters)


def test_small_weights_keep_their_relative_accuracy():
    # At rho = 1e-10 the minority weight of each plane, (1 - |h| / g) / 2
    # with g = hypot(h, o), is near (o / 2h)^2; 1 - |h| / g would round to 0.
    rho = 1e-10
    minority = []
    with decimal.localcontext() as context:
        context.prec = 50
        for half_gap, coupling in (
            (0.5 * (SIV.xi_corr - SIV.lambda_corr), SIV.f_u + SIV.f_g),
            (0.5 * (SIV.lambda_corr + SIV.xi_corr), SIV.f_u - SIV.f_g),
        ):
            h, o = decimal.Decimal(half_gap), decimal.Decimal(coupling * rho)
            g = (h * h + o * o).sqrt()
            minority.append(float((1 - abs(h) / g) / 2))
    characters = classical_apes(SIV, rho, 0.0).characters
    # Sheets 0 and 1 or 2 lie in the (A2u, Eu) plane, sheet 3 and the other
    # middle one in the (A1u, Eu) plane.
    assert characters[0, 2] == pytest.approx(minority[0], rel=1e-14, abs=0.0)
    assert characters[1:3, 0].sum() == pytest.approx(minority[0], rel=1e-14, abs=0.0)
    assert characters[1:3, 1].sum() == pytest.approx(minority[1], rel=1e-14, abs=0.0)
    assert characters[3, 2] == pytest.approx(minority[1], rel=1e-14, abs=0.0)
    assert minority[0] == pytest.approx(3.5354e-19, rel=1e-4, abs=0.0)


def test_classical_apes_zero_correlation_formula():
    params = PjtParams(hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=95.0, f_u=103.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        radius = float(rng.uniform(0.1, 4.0))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        point = classical_apes(params, radius * np.cos(angle), radius * np.sin(angle))
        lift = 0.5 * params.hbar_omega * radius**2
        expected = np.sort(
            [
                lift - (params.f_u + params.f_g) * radius,
                lift - (params.f_u - params.f_g) * radius,
                lift + (params.f_u - params.f_g) * radius,
                lift + (params.f_u + params.f_g) * radius,
            ]
        )
        assert np.allclose(point.energies, expected, atol=1e-9)


def test_classical_trough_minimum_matches_channel_energy():
    params = PjtParams(hbar_omega=75.9, lambda_corr=0.0, xi_corr=0.0, f_g=95.0, f_u=103.0)
    e_jt1, _ = ejt_from_couplings(params)
    radius = (params.f_g + params.f_u) / params.hbar_omega
    at_minimum = classical_apes(params, radius, 0.0).energies[0]
    assert at_minimum == pytest.approx(-e_jt1, abs=1e-9)
    assert classical_apes(params, 0.8 * radius, 0.0).energies[0] > at_minimum
    assert classical_apes(params, 1.2 * radius, 0.0).energies[0] > at_minimum


def test_ejt_from_couplings_siv():
    e_jt1, e_jt2 = ejt_from_couplings(SIV)
    assert e_jt1 == pytest.approx(258.2608695652, abs=1e-9)
    assert e_jt2 == pytest.approx(0.4216073781, abs=1e-9)


def test_ejt_limits():
    equal = PjtParams(hbar_omega=80.0, lambda_corr=0.0, xi_corr=0.0, f_g=60.0, f_u=60.0)
    assert ejt_from_couplings(equal)[1] == 0.0
    single = PjtParams(hbar_omega=80.0, lambda_corr=0.0, xi_corr=0.0, f_g=0.0, f_u=60.0)
    e_jt1, e_jt2 = ejt_from_couplings(single)
    assert e_jt1 == pytest.approx(60.0**2 / (2.0 * 80.0))
    assert e_jt2 == pytest.approx(e_jt1)


def test_couplings_from_ejt_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(25):
        f_small = float(rng.uniform(0.0, 100.0))
        f_large = f_small + float(rng.uniform(0.0, 60.0))
        hw = float(rng.uniform(30.0, 120.0))
        params = PjtParams(
            hbar_omega=hw, lambda_corr=0.0, xi_corr=0.0, f_g=f_small, f_u=f_large
        )
        e_jt1, e_jt2 = ejt_from_couplings(params)
        back_g, back_u = couplings_from_ejt(e_jt1, e_jt2, hw)
        assert back_g == pytest.approx(f_small, abs=1e-9)
        assert back_u == pytest.approx(f_large, abs=1e-9)


def test_couplings_from_ejt_dominance_flag():
    f_g, f_u = couplings_from_ejt(258.0, 0.47, 75.9)
    assert f_g == pytest.approx(94.7266592958, abs=1e-9)
    assert f_u == pytest.approx(103.1733154389, abs=1e-9)


def test_couplings_from_ejt_validation():
    with pytest.raises(ValueError):
        couplings_from_ejt(0.4, 258.0, 75.9)
    with pytest.raises(ValueError):
        couplings_from_ejt(258.0, 0.47, 0.0)
    with pytest.raises(ValueError):
        couplings_from_ejt(258.0, -0.1, 75.9)
