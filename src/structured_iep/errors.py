"""Exception taxonomy shared across the package."""


class StructuredIEPError(Exception):
    """Base class for all package errors."""


class GraphFormatError(StructuredIEPError):
    """Malformed edge list: self-loop, duplicate edge, or vertex out of range."""


class ProblemFormatError(StructuredIEPError):
    """Problem or polynomial file fails schema-level validation."""


class InvariantViolation(StructuredIEPError):
    """Input parses but violates a domain invariant (e.g. repeated targets)."""


class LeadingCoefficientError(StructuredIEPError):
    """Leading coefficient is not diagonal with strictly positive diagonal."""


class NonRealSpectrum(StructuredIEPError):
    """An eigenvalue of the linearization has a non-negligible imaginary part."""

    def __init__(self, msg, max_imag=None):
        super().__init__(msg)
        self.max_imag = max_imag


class NearDegenerate(StructuredIEPError):
    """Two computed proper values are closer than the separation tolerance."""


class DegenerateDenominator(StructuredIEPError):
    """v^T A'(lambda) v is too small: the proper value is numerically non-simple."""


class SingularJacobian(StructuredIEPError):
    """The Newton linear system is rank deficient."""


class NoConvergence(StructuredIEPError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report

