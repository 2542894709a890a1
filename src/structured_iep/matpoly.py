"""Matrix polynomials: evaluation, linearization, proper values.

A degree-k matrix polynomial is P(z) = sum_s A_s z^s with real symmetric
n x n coefficients.  Its proper values are the zeros of det P(z); proper
vectors are the corresponding null directions.  This package operates in
the all-real, simple-spectrum regime; a non-real or near-multiple spectrum
is reported as an error, not a result.

Degree k >= 2 goes through eig of the block companion matrix (linearize),
and each proper vector is the top block of its companion eigenvector: the
eigenvector of a linearization gives a proper vector with a backward error
of the order of the eigensolver's (Higham, Li & Tisseur, SIAM J. Matrix
Anal. Appl. 29, 2007).  Degree 1 is the symmetric-definite pencil
A_0 + zD (D the positive leading diagonal, A_0 required symmetric): eigh
of -D^{-1/2} A_0 D^{-1/2} gives real values and their vectors, so it
needs no non-real check.  The vectors keep the eigensolver's scale and
sign: the sensitivities read them only through ratios of quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, LeadingCoefficientError, NearDegenerate, NonRealSpectrum

REAL_TOL_DEFAULT = 1e-8
SEP_TOL_REL = 1e-10


@dataclass(frozen=True)
class MatrixPolynomial:
    coeffs: tuple[np.ndarray, ...]  # A_0 .. A_k

    def __post_init__(self):
        coeffs = tuple(np.asarray(c, dtype=float) for c in self.coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        n = coeffs[0].shape[0]
        for c in coeffs:
            if c.shape != (n, n):
                raise ValueError(f"coefficient shape {c.shape} != ({n},{n})")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class SpectralDecomposition:
    """Matched (value, proper vector) pairs, values strictly ascending.

    Row q of ``companion_rows`` is a real proper vector for values[q], not
    normalised.  ``companion`` is the matrix whose eigenvalues are the
    values, ``lead`` P's leading diagonal: the sensitivities read P' there.
    """

    values: np.ndarray
    companion_rows: np.ndarray = field(repr=False)  # real, row q for values[q]
    companion: np.ndarray = field(repr=False)
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


def _check_leading(P: MatrixPolynomial) -> np.ndarray:
    Ak = P.coeffs[-1]
    offdiag = Ak - np.diag(np.diag(Ak))
    if np.any(offdiag != 0.0):
        raise LeadingCoefficientError("leading coefficient must be diagonal")
    d = np.diag(Ak)
    if np.any(d <= 0.0):
        raise LeadingCoefficientError("leading diagonal must be strictly positive")
    return d


def _companion_layout(coeffs, lead: np.ndarray, pencil: bool = False) -> np.ndarray:
    """The companion layout of sum_s z^s coeffs[s] + z^k diag(lead), the one
    writer of linearize, _pencil and CompanionTemplate: identity blocks on
    the block superdiagonal, and in the last block row -coeffs[s] scaled by
    1 / lead[r] in row r.  With ``pencil`` (k = 1 only) -coeffs[0] is scaled
    symmetrically by 1 / sqrt(lead[r] lead[c]) instead.  Either way entry
    (r, r) of coeffs[s] lands at row (k-1)n + r, column sn + r as
    -coeffs[s][r, r] / lead[r]."""
    n, k = len(lead), len(coeffs)
    if pencil:
        root = np.sqrt(lead)
        scale = np.outer(root, root)
    else:
        scale = lead[:, None]
    C = np.zeros((n * k, n * k))
    for i in range(k - 1):
        C[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    for s, A in enumerate(coeffs):
        C[(k - 1) * n:, s * n:(s + 1) * n] = -A / scale
    if pencil:
        C[np.diag_indices(n)] = -np.diag(coeffs[0]) / lead
    return C


def linearize(P: MatrixPolynomial) -> np.ndarray:
    """Block companion matrix of the monic reduction A_k^{-1} P(z).

    Requires a diagonal positive leading coefficient.  The companion
    eigenvalues are exactly the proper values of P with multiplicity, and a
    companion eigenvector stacks (v, z v, ..., z^{k-1} v).
    """
    lead = _check_leading(P)
    if P.degree == 0:
        raise ValueError("cannot linearize a degree-0 polynomial")
    return _companion_layout(P.coeffs[:-1], lead)


def _pencil(P: MatrixPolynomial) -> np.ndarray:
    """-D^{-1/2} A_0 D^{-1/2} for a degree-1 P = A_0 + zD, whose eigenvalues
    are the proper values of P.  Entry (r, r) is -A_0[r, r] / D[r, r],
    exactly as linearize writes it.  Raises InvariantViolation when A_0 is
    not symmetric: eigh reads one triangle only."""
    lead = _check_leading(P)
    A0 = P.coeffs[0]
    if not np.array_equal(A0, A0.T, equal_nan=True):
        raise InvariantViolation("the constant coefficient of a degree-1 polynomial must be symmetric")
    return _companion_layout((A0,), lead, pencil=True)


def _companion(P: MatrixPolynomial) -> np.ndarray:
    """The matrix whose eigenvalues are the proper values of P: linearize(P),
    or _pencil(P) at degree 1."""
    return _pencil(P) if P.degree == 1 else linearize(P)


def _check_separation(vals: np.ndarray, sep_tol: float | None) -> None:
    """Raise NearDegenerate if two ascending values are closer than sep_tol
    (default SEP_TOL_REL times max(diameter, 1) of vals)."""
    if sep_tol is None:
        diam = vals[-1] - vals[0] if len(vals) > 1 else 0.0
        sep_tol = SEP_TOL_REL * max(diam, 1.0)
    gaps = np.diff(vals)
    if len(gaps) and np.min(gaps) < sep_tol:
        q = int(np.argmin(gaps))
        raise NearDegenerate(
            f"proper values {vals[q]:.12g} and {vals[q + 1]:.12g} closer than sep_tol {sep_tol:.3g}"
        )


def _spectrum(C: np.ndarray, lead: np.ndarray, sep_tol: float | None) -> SpectralDecomposition:
    """The decomposition of the polynomial whose _companion is C (leading
    diagonal ``lead``), with the checks of proper_values: the ascending
    values and, row q for values[q], the top n rows of the corresponding
    eigenvectors of linearize(P), real: where eig returns complex arrays,
    the larger of each vector's real and imaginary parts."""
    n = len(lead)
    if len(C) == n:
        vals, U = np.linalg.eigh(C)
        if not np.all(np.isfinite(vals)):
            raise np.linalg.LinAlgError("pencil matrix has an infinite or NaN entry")
        _check_separation(vals, sep_tol)
        return SpectralDecomposition(vals, (U / np.sqrt(lead)[:, None]).T, C, lead)
    w, V = np.linalg.eig(C)
    rows = V[:n]
    if np.iscomplexobj(w):  # eig returns real arrays when every eigenvalue is real
        bad = np.abs(w.imag) > REAL_TOL_DEFAULT * (1.0 + np.abs(w.real))
        if np.any(bad):
            raise NonRealSpectrum(
                f"{int(bad.sum())} eigenvalue(s) with non-negligible imaginary part "
                f"(max |imag| = {np.max(np.abs(w.imag)):.3g})"
            )
        # a real value's vector is real up to a complex phase: keep its larger part
        use_imag = np.linalg.norm(rows.imag, axis=0) > np.linalg.norm(rows.real, axis=0)
        rows = np.where(use_imag, rows.imag, rows.real)
    order = np.argsort(w.real, kind="stable")
    vals = w.real[order]
    _check_separation(vals, sep_tol)
    return SpectralDecomposition(vals, rows[:, order].T, C, lead)


def proper_values(P: MatrixPolynomial, sep_tol: float | None = None) -> SpectralDecomposition:
    """All nk proper values of P, ascending: eig of linearize(P), or for
    degree 1 eigh of the symmetric pencil matrix -D^{-1/2} A_0 D^{-1/2}.

    The proper vectors are the top n rows of the companion eigenvectors as
    the eigensolver returns them (see SpectralDecomposition), real and not
    normalised.  CompanionTemplate.proper_values runs the same eigensolver
    and checks on a matrix patched in place of this one.

    Raises NonRealSpectrum if any companion eigenvalue has relative
    imaginary part above REAL_TOL_DEFAULT, and NearDegenerate if two returned
    values are closer than ``sep_tol`` (default SEP_TOL_REL times
    max(diameter, 1) of the values).  Both signal that the simple-real
    regime the rest of the package relies on has been left.  NonRealSpectrum cannot occur
    at degree 1, where the spectrum of the pencil is real; there a
    non-symmetric A_0 raises InvariantViolation.
    """
    return _spectrum(_companion(P), np.diag(P.coeffs[-1]), sep_tol)


@dataclass(frozen=True)
class CompanionTemplate:
    """The companion matrix of P(z) = sum_{s<k} z^s A_s + z^k diag(lead),
    for the proper values of every polynomial that differs from P only on
    the diagonals of A_0 .. A_{k-1}.

    Built by from_coefficients through the layout linearize and _pencil
    write (the symmetric pencil matrix at k = 1), so entry (r, r) of A_s
    sits at row (k-1)n + r, column sn + r as -A_s[r, r] / lead[r], and
    proper_values(d) gives bitwise the values and companion_rows of
    proper_values applied to P with diag(A_s) = d[sn:(s+1)n].  Neither that
    polynomial nor its checks are built: the caller supplies a positive
    ``lead``, at k = 1 a symmetric A_0, and the separation tolerance
    ``sep_tol``.
    """

    matrix: np.ndarray
    n: int
    diagonal: tuple[np.ndarray, np.ndarray]  # (row, column) of entry d[sn + r]
    lead: np.ndarray  # the leading diagonal repeated k times, one entry per unknown
    sep_tol: float

    @classmethod
    def from_coefficients(cls, coeffs, lead: np.ndarray, sep_tol: float) -> "CompanionTemplate":
        """The template of the non-leading coefficients ``coeffs`` (their
        diagonals are ignored) and the positive leading diagonal ``lead``."""
        n, k = len(lead), len(coeffs)
        unknowns = np.arange(n * k)
        return cls(matrix=_companion_layout(coeffs, lead, pencil=k == 1), n=n,
                   diagonal=(n * (k - 1) + unknowns % n, unknowns), lead=np.concatenate([lead] * k),
                   sep_tol=sep_tol)

    def proper_values(self, d: np.ndarray) -> SpectralDecomposition:
        """Ascending proper values for the diagonals d (s-major), with the
        checks of proper_values at this template's ``sep_tol``."""
        d = np.asarray(d, dtype=float)
        if d.shape != self.lead.shape:
            raise ValueError(f"diagonals have shape {d.shape}, expected {self.lead.shape}")
        C = self.matrix.copy()
        C[self.diagonal] = -d / self.lead
        return _spectrum(C, self.lead[:self.n], self.sep_tol)
