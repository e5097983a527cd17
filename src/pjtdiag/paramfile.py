"""Flat key=value parameter files.

One ``key = value`` pair per line; '#' starts a comment (whole line or
trailing); blank lines are ignored. Required keys:

    hbar_omega_mev, lambda_mev, xi_mev

plus exactly one coupling representation, either

    f_g_mev, f_u_mev          (the couplings themselves)

or

    e_jt1_mev, e_jt2_mev      (channel relaxation energies, converted back)
"""

from __future__ import annotations

import math

from .hamiltonian import PjtParams, couplings_from_ejt

__all__ = ["ParamFileError", "parse_params"]

_BASE_KEYS = ("hbar_omega_mev", "lambda_mev", "xi_mev")
_COUPLING_KEYS = ("f_g_mev", "f_u_mev")
_CHANNEL_KEYS = ("e_jt1_mev", "e_jt2_mev")
_ALL_KEYS = _BASE_KEYS + _COUPLING_KEYS + _CHANNEL_KEYS


class ParamFileError(ValueError):
    """Parameter file violates the schema."""


def parse_params(text: str) -> PjtParams:
    """Parse parameter-file text into validated model parameters.

    Args:
        text: Full file contents.

    Returns:
        PjtParams; channel energies, when given, are converted with the
        f_u >= f_g convention.

    Raises:
        ParamFileError: malformed line, unknown, duplicate or missing key,
            non-numeric or negative value, zero hbar_omega_mev, or both
            coupling representations present. Messages name the offending
            key and line.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamFileError(
                f"line {lineno}: expected key=value, got {raw.strip()!r}"
            )
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _ALL_KEYS:
            raise ParamFileError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParamFileError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ParamFileError(
                f"line {lineno}: non-numeric value for {key!r}: {value_text!r}"
            ) from None
        if not math.isfinite(value):
            raise ParamFileError(f"line {lineno}: non-finite value for {key!r}")
        if value < 0:
            raise ParamFileError(
                f"line {lineno}: negative value for {key!r}: {value}"
            )
        if value == 0 and key == "hbar_omega_mev":
            raise ParamFileError(f"line {lineno}: {key!r} must be positive, got {value}")
        values[key] = value

    have_couplings = [k for k in _COUPLING_KEYS if k in values]
    have_channels = [k for k in _CHANNEL_KEYS if k in values]
    if have_couplings and have_channels:
        raise ParamFileError(
            "conflicting coupling specification: give f_g_mev/f_u_mev or "
            "e_jt1_mev/e_jt2_mev, not both"
        )
    if not have_couplings and not have_channels:
        raise ParamFileError(
            "missing coupling keys: give f_g_mev and f_u_mev, or "
            "e_jt1_mev and e_jt2_mev"
        )
    required = _BASE_KEYS + (_COUPLING_KEYS if have_couplings else _CHANNEL_KEYS)
    missing = [k for k in required if k not in values]
    if missing:
        raise ParamFileError(f"missing key(s): {', '.join(missing)}")

    if have_couplings:
        f_g = values["f_g_mev"]
        f_u = values["f_u_mev"]
    else:
        try:
            f_g, f_u = couplings_from_ejt(
                values["e_jt1_mev"], values["e_jt2_mev"], values["hbar_omega_mev"]
            )
        except ValueError as exc:
            raise ParamFileError(f"invalid channel energies: {exc}") from None
    try:
        return PjtParams(
            hbar_omega=values["hbar_omega_mev"],
            lambda_corr=values["lambda_mev"],
            xi_corr=values["xi_mev"],
            f_g=f_g,
            f_u=f_u,
        )
    except ValueError as exc:
        raise ParamFileError(str(exc)) from None
