"""Matrix polynomials: evaluation, linearization, proper values.

A degree-k matrix polynomial is P(z) = sum_s A_s z^s with real symmetric
n x n coefficients and a positive diagonal A_k, the theorem's hypothesis.
One method checks it: MatrixPolynomial.checked_row() returns the
coefficient row [A_0 ... A_{k-1}] and A_k's diagonal, or raises
LeadingCoefficientError (A_k) or InvariantViolation (degree 0, or another
coefficient not finite and symmetric), and every reader of a polynomial
goes through it: proper_values (and so the solver's verify), linearize,
and the sensitivity module's eigderivative and jacobian_fd.  Construction
checks types and shapes only.

The proper values of P are the zeros of det P(z); proper vectors are the
corresponding null directions.  This package operates in the all-real,
simple-spectrum regime; a non-real or near-multiple spectrum is reported
as an error, not a result.

Degree k >= 2 goes through eig of the block companion matrix, and each
proper vector is the top block of its companion eigenvector: the
eigenvector of a linearization gives a proper vector with a backward error
of the order of the eigensolver's (Higham, Li & Tisseur, SIAM J. Matrix
Anal. Appl. 29, 2007).  Degree 1 is the symmetric-definite pencil
A_0 + zD (D the positive leading diagonal): eigh of -D^{-1/2} A_0 D^{-1/2}
gives real values and their vectors, so it needs no non-real check.  The
vectors keep the eigensolver's scale and sign: the sensitivities read them
only through ratios of quadratic forms.

decompose_row, which proper_values and the solver's spectral_map both run,
takes the coefficient row [A_0 ... A_{k-1}] and lays out its companion
with companion_layout, the one writer of that layout (linearize is the
same layout of a whole polynomial), or at degree 1 the pencil matrix
itself.  companion_layout copies a cached read-only template of the
identity blocks for each size and writes only the last block row, the one
part that changes from trial to trial.  Given
``rows`` it computes values only (eigvals, or eigvalsh at degree 1), with
the same checks, and keeps those rows as the proper vectors: the solver's
Newton trials near a root at full coupling reuse the vectors of their
corrector's start.  Its SpectralDecomposition is plain data, the pairs
with P's coefficients [A_1 ... A_{k-1}] and leading diagonal: this module
solves, and the sensitivity module differentiates from that data.

Every eigensolve and linear solve of the package goes through lapack,
this module's one kernel (not exported): decompose_row's eig, eigvals,
eigh and eigvalsh, and the solver's Newton and tangent solves.  It calls
the gufuncs that numpy.linalg's wrappers call (numpy.linalg._umath_linalg,
float64 signatures) and keeps the part of each wrapper that matters
here: eig and eigvals reject non-finite input, and a LAPACK failure raises
LinAlgError with numpy's text.  The wrappers' type promotion, shape checks and
real-or-complex result cast cost more than the eigensolve itself at the
n <= 6 sizes of most solves, and every array handed over here is a
square float64 matrix already; decompose_row reads the real parts of the
complex eig output and tests the imaginary parts itself.  The results are
the wrappers' bitwise, the same gufunc on the same array.  The gufuncs are
private to numpy, so tests/test_matpoly.py pins the kernel to the public
functions, values and errors, on the installed numpy.  The package's one
other LAPACK work, the SVD of np.linalg.cond for the Jacobian's condition
number, runs outside the kernel: in sensitivity.seed_vandermonde_check and
in cli.cmd_jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InvariantViolation, LeadingCoefficientError, NearDegenerate, NonRealSpectrum, real_matrix

REAL_TOL_DEFAULT = 1e-8
SEP_TOL_REL = 1e-10
# a spectrum off the real, simple regime, or a matrix LAPACK refuses (overflow)
SPECTRUM_FAILURES = (NonRealSpectrum, NearDegenerate, LinAlgError)


def _eigensolve_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# kind: (gufunc, float64 signature, LAPACK-failure handler, rejects non-finite input)
_GUFUNCS = {
    "eig": (_umath_linalg.eig, "d->DD", _eigensolve_failed, True),
    "eigvals": (_umath_linalg.eigvals, "d->D", _eigensolve_failed, True),
    "eigh": (_umath_linalg.eigh_lo, "d->dd", _eigensolve_failed, False),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "d->d", _eigensolve_failed, False),
    "solve": (_umath_linalg.solve1, "dd->d", _singular, False),
}


def lapack(kind: str, *operands: np.ndarray):
    """numpy.linalg.<kind>(*operands) for kind in _GUFUNCS, bitwise, for a
    square float64 matrix (and, for solve, a float64 vector): the gufunc
    numpy's wrapper calls, with the wrapper's checks and errors.  eig and
    eigvals return complex arrays whatever the imaginary parts, where the
    wrapper casts to real when they are all 0; eigh and eigvalsh read the
    lower triangle.  Non-finite input to eig or eigvals raises LinAlgError
    ("Array must not contain infs or NaNs"), and a LAPACK failure raises it
    with numpy's text ("Eigenvalues did not converge", "Singular matrix")."""
    gufunc, signature, failed, finite_only = _GUFUNCS[kind]
    if finite_only and not np.logical_and.reduce(np.isfinite(operands[0]), axis=None):
        raise LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(*operands, signature=signature)


@dataclass(frozen=True)
class MatrixPolynomial:
    """P(z) = sum_s A_s z^s.  Each coefficient is typed by
    errors.real_matrix, all of the first one's size, at least 1 x 1: a
    coefficient of another type or shape raises InvariantViolation."""

    coeffs: tuple[np.ndarray, ...]  # A_0 .. A_k

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise InvariantViolation("need at least one coefficient")
        first = real_matrix("coefficient", coeffs[0])
        if not first.size:
            raise InvariantViolation("coefficient must be at least 1 x 1, got 0 x 0")
        coeffs = (first, *(real_matrix("coefficient", c, len(first)) for c in coeffs[1:]))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def checked_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, lead): the coefficient row [A_0 ... A_{k-1}] (n x kn) and
        the diagonal of A_k, after the theorem's hypothesis, which every
        eigensolve and sensitivity here relies on and this method alone
        checks.  Raises LeadingCoefficientError unless A_k is diagonal
        with a finite, strictly positive diagonal; then InvariantViolation
        at degree 0, and unless every other coefficient is finite and
        symmetric (at degree 1 eigh reads one triangle only)."""
        *rest, Ak = self.coeffs
        if np.any(Ak[~np.eye(self.n, dtype=bool)] != 0.0):
            raise LeadingCoefficientError("leading coefficient must be diagonal")
        lead = np.diag(Ak)
        if not np.isfinite(lead).all():
            raise LeadingCoefficientError("leading diagonal must be finite")
        if np.any(lead <= 0.0):
            raise LeadingCoefficientError("leading diagonal must be strictly positive")
        if not rest:
            raise InvariantViolation("cannot linearize a degree-0 polynomial")
        if not all(np.isfinite(c).all() and np.array_equal(c, c.T) for c in rest):
            raise InvariantViolation("polynomial coefficients must be finite and symmetric")
        return np.hstack(rest), lead


@dataclass(frozen=True)
class SpectralDecomposition:
    """Matched (value, proper vector) pairs, values strictly ascending.

    Row q of ``companion_rows`` is a real proper vector for values[q], not
    normalised.  ``upper`` is P's [A_1 ... A_{k-1}] (n x (k-1)n, empty at
    k = 1) and ``lead`` its leading diagonal: with the values they give P'
    at each value, which the sensitivities read.
    """

    values: np.ndarray
    companion_rows: np.ndarray = field(repr=False)  # real, row q for values[q]
    upper: np.ndarray = field(repr=False)
    lead: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.values)


def evaluate(P: MatrixPolynomial, z) -> np.ndarray:
    """Horner evaluation of P at z; a 1-D array of m points gives the
    stacked (m, n, n) values."""
    z = np.asarray(z)
    out = np.empty(z.shape + (P.n, P.n), dtype=np.result_type(z, float))
    out[...] = P.coeffs[-1]
    zz = z[..., None, None]
    for c in reversed(P.coeffs[:-1]):
        out *= zz
        out += c
    return out


@lru_cache(maxsize=8)
def _identity_blocks(n: int, nk: int) -> np.ndarray:
    """The read-only nk x nk companion template of block size n: identity
    blocks on the block superdiagonal and nothing in the last block row."""
    C = np.eye(nk, k=n)
    C.flags.writeable = False
    return C


def companion_layout(row: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """The companion layout of sum_s z^s A_s + z^k diag(lead), for the
    block row row = [A_0 ... A_{k-1}] (n x kn): the one writer of the
    companion, for linearize and decompose_row.  A fresh copy of the cached
    identity template, with -row / lead[r] written in row r of its last
    block row (as row / -lead[r], which rounds the same)."""
    n, nk = row.shape
    C = _identity_blocks(n, nk).copy()
    np.divide(row, -lead[:, None], out=C[-n:])
    return C


def linearize(P: MatrixPolynomial) -> np.ndarray:
    """Block companion matrix of the monic reduction A_k^{-1} P(z):
    companion_layout of P.checked_row(), whose errors it raises.  The
    companion eigenvalues are exactly the proper values of P with
    multiplicity, and a companion eigenvector stacks (v, z v, ...,
    z^{k-1} v).
    """
    return companion_layout(*P.checked_row())


def decompose_row(row: np.ndarray, lead: np.ndarray, rows: np.ndarray | None = None) -> SpectralDecomposition:
    """The decomposition of P(z) = sum_{s<k} z^s A_s + z^k diag(lead), for
    the coefficient row row = [A_0 ... A_{k-1}] (n x kn) and a positive
    ``lead``, with the checks of proper_values: the ascending values and,
    row q for values[q], the top n rows of the corresponding companion
    eigenvectors.  The eigensolve is eig of the companion matrix that
    companion_layout(row, lead) writes (the template's identity blocks and
    the last block row from ``row``), or at k = 1 eigh of the symmetric pencil
    matrix -D^{-1/2} A_0 D^{-1/2} (D = diag(lead), the caller supplies a
    symmetric A_0), its diagonal written as the companion writes it,
    -A_0[r, r] / lead[r], and its vectors scaled back by the same
    sqrt(lead).  Given ``rows``, it computes values only (eigvals, or
    eigvalsh at degree 1), with the same checks, and ``rows`` is the
    decomposition's companion_rows.  Its ``upper`` is the view row[:, n:].
    Each eigensolve is one lapack call.  The values and vectors are the
    real parts of its complex eig output, and a nonzero imaginary part
    (where numpy's eig would return a complex array) is a conjugate pair,
    which LAPACK stores with bitwise-equal real parts: it raises
    NonRealSpectrum, or ties on the real line and NearDegenerate.  The
    separation check compares the smallest gap with SEP_TOL_REL times
    max(diameter, 1) of the values, and only a failing one builds the
    message."""
    n = len(lead)
    if row.shape[1] == n:
        root = np.sqrt(lead)
        C = -row / np.outer(root, root)
        C[np.diag_indices(n)] = -np.diag(row) / lead
        if rows is None:
            vals, U = lapack("eigh", C)
            rows = (U / root[:, None]).T
        else:
            vals = lapack("eigvalsh", C)
        if not np.isfinite(vals).all():
            raise LinAlgError("pencil matrix has an infinite or NaN entry")
    else:
        C = companion_layout(row, lead)
        w, V = lapack("eig", C) if rows is None else (lapack("eigvals", C), None)
        if np.logical_or.reduce(w.imag):  # where numpy's eig would return a complex array
            bad = np.abs(w.imag) > REAL_TOL_DEFAULT * (1.0 + np.abs(w.real))
            if bad.any():
                raise NonRealSpectrum(
                    f"{int(bad.sum())} eigenvalue(s) with non-negligible imaginary part "
                    f"(max |imag| = {np.max(np.abs(w.imag)):.3g})"
                )
        order = w.real.argsort(kind="stable")
        vals = w.real[order]
        if V is not None:
            rows = V.real[:n, order].T
    sep_tol = SEP_TOL_REL * max(vals[-1] - vals[0], 1.0)
    if len(vals) > 1:
        gaps = vals[1:] - vals[:-1]
        if np.minimum.reduce(gaps) < sep_tol:
            q = int(gaps.argmin())
            raise NearDegenerate(
                f"proper values {vals[q]:.12g} and {vals[q + 1]:.12g} closer than sep_tol {sep_tol:.3g}"
            )
    return SpectralDecomposition(vals, rows, row[:, n:], lead)


def proper_values(P: MatrixPolynomial) -> SpectralDecomposition:
    """All nk proper values of P, ascending: eig of P's block companion
    matrix, or for degree 1 eigh of the symmetric pencil matrix
    -D^{-1/2} A_0 D^{-1/2}.

    The proper vectors are the top n rows of the companion eigenvectors as
    the eigensolver returns them (see SpectralDecomposition), real and not
    normalised.  This is decompose_row of P.checked_row().

    Raises NonRealSpectrum if any companion eigenvalue has relative
    imaginary part above REAL_TOL_DEFAULT, and NearDegenerate if two
    returned values are closer than SEP_TOL_REL times max(diameter, 1) of
    the values.  Both signal that the simple-real regime the rest of the
    package relies on has been left.  NonRealSpectrum cannot occur at
    degree 1, where the spectrum of the pencil is real.  Before it solves,
    P.checked_row() raises LeadingCoefficientError or InvariantViolation
    for a polynomial outside the theorem's hypothesis.
    """
    return decompose_row(*P.checked_row())
