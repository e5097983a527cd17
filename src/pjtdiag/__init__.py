"""Exact diagonalization of a two-orbital vibronic model on a truncated
two-mode Fock space.

Two degenerate orbitals, each holding one hole, couple linearly to the two
components of one doubly degenerate local vibration while a static
correlation term splits the electronic multiplets. The package diagonalizes
the vibronic matrix in sectors of conserved angular momentum J with numpy
alone and reduces the low-lying levels to physical observables: electronic
characters, the distortion expectation R, and the splitting delta between
the lowest vibronic level and the doublet above it, at one Fock cutoff or
over a ladder of them. Built-in presets cover the four neutral group-IV
vacancy centers in diamond.

The package namespace holds the functions and inputs; result types and
constants (ApesPoint, SpectrumReport, ConvergenceStudy, SYMMETRY_TRANSFORM,
...) are imported from their submodules.
"""

__version__ = "0.1.0"

from .analysis import (
    StateOrderingError,
    TruncationWarning,
    apes_scan,
    converge_cutoff,
    delta_splitting,
    spectrum_report,
)
from .hamiltonian import PjtParams, classical_apes, couplings_from_ejt, ejt_from_couplings
from .paramfile import ParamFileError, parse_params
from .presets import PRESETS
from .sectors import ConvergenceError

__all__ = [
    "__version__",
    "ConvergenceError",
    "PRESETS",
    "ParamFileError",
    "PjtParams",
    "StateOrderingError",
    "TruncationWarning",
    "apes_scan",
    "classical_apes",
    "converge_cutoff",
    "couplings_from_ejt",
    "delta_splitting",
    "ejt_from_couplings",
    "parse_params",
    "spectrum_report",
]
