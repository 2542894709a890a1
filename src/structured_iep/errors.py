"""Exception taxonomy shared across the package, and its input rules."""

import math
import numbers

import numpy as np


class StructuredIEPError(Exception):
    """Base class for all package errors."""


class ProblemFormatError(StructuredIEPError):
    """A problem, polynomial or unknowns file that fails schema-level
    validation: unreadable, not JSON, a missing or mistyped field."""


class InvariantViolation(StructuredIEPError, ValueError):
    """Bad input to a library entry point: an argument of the wrong type,
    shape or range, or one that breaks a hypothesis of the theorem (nk
    distinct real targets, one graph per non-leading coefficient, a
    positive diagonal A_k).  A ValueError too, as numpy's LinAlgError is."""


class GraphFormatError(InvariantViolation):
    """Malformed edge list: an edge that is not a pair, a self-loop, a
    duplicate edge, or a vertex out of range."""


class LeadingCoefficientError(InvariantViolation):
    """Leading coefficient is not diagonal with a finite, strictly positive diagonal."""


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


def check_integer(name, value):
    """Raise InvariantViolation unless value is an integer: numbers.Integral, not bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvariantViolation(f"{name} must be an integer, got {type(value).__name__}")


def check_real(name, value):
    """Raise InvariantViolation unless value is a finite real number:
    numbers.Real, not bool, and within float range (an integer such as
    10**400 is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvariantViolation(f"{name} must be a real number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise InvariantViolation(f"{name} must be a real number and finite, got a value beyond float range") from None
    if not finite:
        raise InvariantViolation(f"{name} must be a real number and finite, got {value}")


def check_positive(name, value):
    """Raise InvariantViolation unless value is a positive, finite real number (check_real)."""
    check_real(name, value)
    if not value > 0:
        raise InvariantViolation(f"{name} must be positive, got {value}")


def real_vector(name, value, length=None) -> np.ndarray:
    """A fresh float64 copy of ``value``, the rule of every vector input:
    integer or floating entries (no bool, complex, text or object), one
    dimension, ``length`` entries (any when None), all finite.  Otherwise,
    a ragged list included, raise InvariantViolation."""
    shape = "(n,)" if length is None else f"({length},)"
    try:
        v = np.asarray(value)
    except ValueError:  # a ragged list
        raise InvariantViolation(
            f"{name} must be a finite real vector of shape {shape}, got a ragged sequence") from None
    if (v.dtype.kind not in "iuf" or v.ndim != 1 or (length is not None and len(v) != length)
            or not np.isfinite(v).all()):
        raise InvariantViolation(f"{name} must be a finite real vector of shape {shape}, got {v.dtype} {v.shape}")
    return v.astype(float)


def real_matrix(name, value, size=None) -> np.ndarray:
    """``value`` as a float64 array (no copy when it is one already), the
    rule of every matrix input: integer or floating entries (no bool,
    complex, text or object) in a square 2-D array, ``size`` x ``size``
    (any size when None).  Entries may be non-finite: what they must
    satisfy beyond their type is the reader's rule.  Otherwise, a ragged
    list included, raise InvariantViolation."""
    try:
        m = np.asarray(value)
    except ValueError:  # a ragged list
        raise InvariantViolation(f"{name} must be a real square matrix, got a ragged sequence") from None
    if m.dtype.kind not in "iuf" or m.ndim != 2:
        raise InvariantViolation(f"{name} must be a real square matrix, got {m.dtype} {m.shape}")
    n = m.shape[0] if size is None else size
    if m.shape != (n, n):
        raise InvariantViolation(f"{name} shape {m.shape} != ({n},{n})")
    return m.astype(float, copy=False)


def real_row(name, value, n) -> np.ndarray:
    """``value`` as a float64 array (no copy when it is one already), the
    rule of every coefficient-row input [B_0 B_1 ...]: integer or floating
    entries, n rows and a positive multiple of n columns, all finite.
    Otherwise, a ragged list included, raise InvariantViolation."""
    rule = f"{name} must be a finite real coefficient row of shape ({n}, {n}j)"
    try:
        r = np.asarray(value)
    except ValueError:  # a ragged list
        raise InvariantViolation(f"{rule}, got a ragged sequence") from None
    if (r.dtype.kind not in "iuf" or r.ndim != 2 or r.shape[0] != n or not r.shape[1] or r.shape[1] % n
            or not np.logical_and.reduce(np.isfinite(r), axis=None)):
        raise InvariantViolation(f"{rule}, got {r.dtype} {r.shape}")
    return r.astype(float, copy=False)
