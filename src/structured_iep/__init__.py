"""Structured inverse proper value problems for symmetric matrix polynomials.

Given nk distinct real targets, a positive diagonal leading coefficient,
and a graph prescribing the zero/nonzero pattern of every non-leading
coefficient, construct a real symmetric matrix polynomial with exactly
those proper values and exactly those patterns: seed a diagonal polynomial
carrying the targets, fix the off-diagonal entries to prescribed nonzero
values, and Newton-correct the diagonals using analytic spectral
sensitivities, with continuation in the off-diagonal scale from the seed,
whose first step starts at the seed's fourth-order predictor, with error
O(tau^5), and is as long as that predictor reaches.
"""

from .errors import (
    DegenerateDenominator,
    GraphFormatError,
    InvariantViolation,
    LeadingCoefficientError,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    ProblemFormatError,
    SingularJacobian,
    StructuredIEPError,
)
from .graphs import Graph, matrix_of_graph
from .matpoly import (
    MatrixPolynomial,
    SpectralDecomposition,
    evaluate,
    linearize,
    proper_values,
)
from .seed import (
    LeadingDiagonal,
    TargetSpectrum,
    seed_coefficients,
    seed_unknowns,
)
from .sensitivity import jacobian_x, seed_vandermonde_check
from .solver import (
    Corrector,
    IterationRecord,
    ProblemSpec,
    SolveReport,
    SolverControls,
    VerifyReport,
    assemble,
    continuation_solve,
    match_targets,
    newton_solve,
    spectral_map,
    verify,
)

__all__ = [
    "DegenerateDenominator", "GraphFormatError",
    "InvariantViolation", "LeadingCoefficientError", "NearDegenerate",
    "NoConvergence", "NonRealSpectrum", "ProblemFormatError",
    "SingularJacobian", "StructuredIEPError",
    "Graph", "matrix_of_graph",
    "MatrixPolynomial", "SpectralDecomposition", "evaluate",
    "linearize", "proper_values",
    "LeadingDiagonal", "TargetSpectrum", "seed_coefficients", "seed_unknowns",
    "jacobian_x", "seed_vandermonde_check",
    "Corrector", "IterationRecord", "ProblemSpec", "SolveReport", "SolverControls",
    "VerifyReport", "assemble", "continuation_solve", "match_targets",
    "newton_solve", "spectral_map", "verify",
]

__version__ = "0.1.0"
