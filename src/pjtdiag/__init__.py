"""Exact diagonalization of a two-orbital vibronic model on a truncated
two-mode Fock space.

Two degenerate orbitals, each holding one hole, couple linearly to the two
components of one doubly degenerate local vibration while a static
correlation term splits the electronic multiplets. The package diagonalizes
the vibronic matrix in sectors of conserved angular momentum J with numpy
alone and reduces the low-lying levels to physical observables: electronic
characters, the distortion expectation R, and the splitting delta between
the lowest vibronic level and the doublet above it:
spectrum_report(params, cutoff).delta at one Fock cutoff, and the rows of
converge_cutoff over a ladder of them. PRESETS maps the names of the four
neutral group-IV vacancy centers in diamond to their PjtParams.

The package namespace holds the functions and inputs; result types and
constants (ApesPoint, SpectrumReport, ConvergenceStudy, ...) are imported
from their submodules.
"""

__version__ = "0.1.0"

from .analysis import (
    StateOrderingError,
    TruncationWarning,
    converge_cutoff,
    spectrum_report,
)
from .hamiltonian import (
    PRESETS,
    PjtParams,
    classical_apes,
    couplings_from_ejt,
    ejt_from_couplings,
)
from .paramfile import ParamFileError, parse_params
from .sectors import ConvergenceError

__all__ = [
    "__version__",
    "ConvergenceError",
    "PRESETS",
    "ParamFileError",
    "PjtParams",
    "StateOrderingError",
    "TruncationWarning",
    "classical_apes",
    "converge_cutoff",
    "couplings_from_ejt",
    "ejt_from_couplings",
    "parse_params",
    "spectrum_report",
]
