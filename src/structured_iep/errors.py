"""Exception taxonomy shared across the package, and its type checks."""

import numbers


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


class NearDegenerate(StructuredIEPError):
    """Two computed proper values are closer than the separation tolerance."""


class DegenerateDenominator(StructuredIEPError):
    """v^T A'(lambda) v is too small: the proper value is numerically non-simple."""


class SingularJacobian(StructuredIEPError):
    """The Newton linear system is rank deficient."""


class NoConvergence(StructuredIEPError):
    """Newton iteration failed to reach the residual tolerance."""


def check_integer(name, value, error=InvariantViolation):
    """Raise ``error`` unless value is an integer: numbers.Integral, not bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {type(value).__name__}")


def check_real(name, value, error=InvariantViolation):
    """Raise ``error`` unless value is a real number: numbers.Real, not bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {type(value).__name__}")
