"""Exact diagonalization of a two-orbital vibronic model on a truncated
two-mode Fock space.

Two degenerate orbitals, each holding one hole, couple linearly to the two
components of one doubly degenerate local vibration while a static
correlation term splits the electronic multiplets. The package diagonalizes
the vibronic matrix in sectors of conserved angular momentum J (the full
sparse product-space matrix and its dense solve stay as a small-cutoff
reference) and reduces the low-lying levels to physical observables:
electronic characters, the distortion expectation R, and the splitting
delta between the lowest vibronic level and the doublet above it. Built-in presets cover
the four neutral group-IV vacancy centers in diamond.

The package namespace holds the functions and inputs; result types and
constants (ApesPoint, SpectrumReport, FockBasis, SYMMETRY_TRANSFORM, ...)
are imported from their submodules.
"""

__version__ = "0.1.0"

from .analysis import (
    StateOrderingError,
    TruncationWarning,
    apes_scan,
    classify_levels,
    delta_from_groups,
    delta_splitting,
    distortion_expectation,
    electronic_character,
    spectrum_report,
)
from .fock import build_basis, number_operator, position_operator
from .hamiltonian import (
    PjtParams,
    VibronicHamiltonian,
    assemble,
    classical_apes,
    couplings_from_ejt,
    ejt_from_couplings,
    pjt_coupling_block,
    w_matrix,
)
from .paramfile import ParamFileError, parse_params
from .presets import PRESETS
from .solver import ConvergenceError, SolveRequest, converge_cutoff, solve

__all__ = [
    "__version__",
    "ConvergenceError",
    "PRESETS",
    "ParamFileError",
    "PjtParams",
    "SolveRequest",
    "StateOrderingError",
    "TruncationWarning",
    "VibronicHamiltonian",
    "apes_scan",
    "assemble",
    "build_basis",
    "classical_apes",
    "classify_levels",
    "converge_cutoff",
    "couplings_from_ejt",
    "delta_from_groups",
    "delta_splitting",
    "distortion_expectation",
    "ejt_from_couplings",
    "electronic_character",
    "number_operator",
    "parse_params",
    "pjt_coupling_block",
    "position_operator",
    "solve",
    "spectrum_report",
    "w_matrix",
]
