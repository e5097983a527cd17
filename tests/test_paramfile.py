"""Key=value parameter file parsing and its error contract."""

import pytest

from pjtdiag import ParamFileError, parse_params

SIV_TEXT = """\
# silicon-vacancy ground-state manifold
hbar_omega_mev = 75.9
lambda_mev = 78.3
xi_mev = 45          # trailing comment
f_g_mev = 95
f_u_mev = 103
"""


def test_parses_coupling_form():
    params = parse_params(SIV_TEXT)
    assert params.hbar_omega == 75.9
    assert params.lambda_corr == 78.3
    assert params.xi_corr == 45.0
    assert params.f_g == 95.0
    assert params.f_u == 103.0


def test_parses_channel_energy_form():
    text = (
        "hbar_omega_mev=75.9\n"
        "lambda_mev=78.3\n"
        "xi_mev=45\n"
        "e_jt1_mev=258\n"
        "e_jt2_mev=0.47\n"
    )
    params = parse_params(text)
    assert params.f_g == pytest.approx(94.7266592958, abs=1e-9)
    assert params.f_u == pytest.approx(103.1733154389, abs=1e-9)


def test_blank_lines_and_comments_ignored():
    text = (
        "\n"
        "# leading comment\n"
        "hbar_omega_mev = 60\n"
        "\n"
        "lambda_mev = 10   # inline\n"
        "xi_mev = 5\n"
        "f_g_mev = 0\n"
        "f_u_mev = 0\n"
        "   \n"
    )
    params = parse_params(text)
    assert params.hbar_omega == 60.0


def test_conflicting_coupling_forms_rejected():
    text = SIV_TEXT + "e_jt1_mev=258\ne_jt2_mev=0.47\n"
    with pytest.raises(ParamFileError, match="conflicting coupling specification"):
        parse_params(text)


def test_missing_base_key_named():
    text = "hbar_omega_mev=75.9\nlambda_mev=78.3\nf_g_mev=95\nf_u_mev=103\n"
    with pytest.raises(ParamFileError, match="xi_mev"):
        parse_params(text)


def test_partial_coupling_pair_named():
    text = "hbar_omega_mev=75.9\nlambda_mev=78.3\nxi_mev=45\nf_g_mev=95\n"
    with pytest.raises(ParamFileError, match="f_u_mev"):
        parse_params(text)


def test_missing_couplings_entirely():
    text = "hbar_omega_mev=75.9\nlambda_mev=78.3\nxi_mev=45\n"
    with pytest.raises(ParamFileError, match="coupling"):
        parse_params(text)


def test_duplicate_key_reports_line():
    text = "hbar_omega_mev=75.9\nhbar_omega_mev=80\n"
    with pytest.raises(ParamFileError, match=r"line 2.*hbar_omega_mev"):
        parse_params(text)


def test_non_numeric_value_reports_key():
    with pytest.raises(ParamFileError, match=r"line 1.*hbar_omega_mev"):
        parse_params("hbar_omega_mev=fast\n")


def test_nan_value_rejected():
    with pytest.raises(ParamFileError):
        parse_params("hbar_omega_mev=nan\n")


def test_negative_value_reports_key():
    text = (
        "hbar_omega_mev=75.9\n"
        "lambda_mev=78.3\n"
        "xi_mev=-1\n"
        "f_g_mev=95\n"
        "f_u_mev=103\n"
    )
    with pytest.raises(ParamFileError, match="xi_mev"):
        parse_params(text)


def test_unknown_key_rejected():
    with pytest.raises(ParamFileError, match="unknown key"):
        parse_params("coupling_mev=3\n")


def test_malformed_line_rejected():
    with pytest.raises(ParamFileError, match="line 1"):
        parse_params("hbar_omega_mev 75.9\n")


def test_inverted_channel_energies_rejected():
    text = (
        "hbar_omega_mev=75.9\n"
        "lambda_mev=78.3\n"
        "xi_mev=45\n"
        "e_jt1_mev=0.47\n"
        "e_jt2_mev=258\n"
    )
    with pytest.raises(ParamFileError, match="channel"):
        parse_params(text)


def test_zero_quantum_rejected():
    # In either coupling form, by the line and key of the quantum.
    base = "hbar_omega_mev=0\nlambda_mev=78.3\nxi_mev=45\n"
    for couplings in ("f_g_mev=95\nf_u_mev=103\n", "e_jt1_mev=258\ne_jt2_mev=0.47\n"):
        with pytest.raises(ParamFileError, match=r"line 1.*hbar_omega_mev"):
            parse_params(base + couplings)
