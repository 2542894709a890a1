"""Matrix polynomials: evaluation, differentiation, linearization, proper values.

A degree-k matrix polynomial is P(z) = sum_s A_s z^s with real symmetric
n x n coefficients.  Its proper values are the zeros of det P(z); proper
vectors are the corresponding null directions.  This package operates in
the all-real, simple-spectrum regime; a non-real or near-multiple spectrum
is reported as an error, not a result.

Degree k >= 2 goes through eig of the block companion matrix (linearize)
and one step of inverse iteration per proper vector.  Degree 1 is the
symmetric-definite pencil A_0 + zD (D the positive leading diagonal, A_0
required symmetric): eigh of -D^{-1/2} A_0 D^{-1/2} gives real values and
exact vectors, so it needs neither a non-real check nor refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    def coefficient_scale(self, z: float) -> float:
        """sum_s ||A_s||_F |z|^s, the natural residual scale at z."""
        return sum(np.linalg.norm(c) * abs(z) ** s for s, c in enumerate(self.coeffs))


# cap on the entries of the stacked P(z_q) matrices held at once (1 MiB of
# doubles); batched evaluation and solves run over row blocks of this size
_BLOCK_DOUBLES = 1 << 17


def _row_blocks(count: int, n: int):
    step = max(1, _BLOCK_DOUBLES // (n * n))
    for start in range(0, count, step):
        yield slice(start, start + step)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Matched (value, unit vector) pairs, values strictly ascending.

    Only the values are computed up front.  ``vectors`` (row q is the unit
    proper vector for values[q]) is selected from the companion eigenvectors
    and, for degree k >= 2, refined on first access, then cached, so callers
    that need only the values never pay for refinement.
    """

    values: np.ndarray
    polynomial: MatrixPolynomial | None = field(repr=False)  # None: vectors cannot be refined
    companion_rows: np.ndarray = field(repr=False)  # top n rows of the eigenvectors, row q for values[q]

    def __len__(self):
        return len(self.values)

    @cached_property
    def vectors(self) -> np.ndarray:
        if self.polynomial is None:
            raise ValueError("decomposition has no polynomial to refine its vectors against")
        return _proper_vectors(self.polynomial, self.values, self.companion_rows)


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


def derivative(P: MatrixPolynomial) -> MatrixPolynomial:
    """Termwise derivative; a constant polynomial differentiates to zero."""
    if P.degree == 0:
        return MatrixPolynomial((np.zeros((P.n, P.n)),))
    return MatrixPolynomial(tuple(s * P.coeffs[s] for s in range(1, P.degree + 1)))


def _check_leading(P: MatrixPolynomial) -> np.ndarray:
    Ak = P.coeffs[-1]
    offdiag = Ak - np.diag(np.diag(Ak))
    if np.any(offdiag != 0.0):
        raise LeadingCoefficientError("leading coefficient must be diagonal")
    d = np.diag(Ak)
    if np.any(d <= 0.0):
        raise LeadingCoefficientError("leading diagonal must be strictly positive")
    return d


def linearize(P: MatrixPolynomial) -> np.ndarray:
    """Block companion matrix of the monic reduction A_k^{-1} P(z).

    Requires a diagonal positive leading coefficient.  The companion
    eigenvalues are exactly the proper values of P with multiplicity, and a
    companion eigenvector stacks (v, z v, ..., z^{k-1} v).
    """
    lead = _check_leading(P)
    n, k = P.n, P.degree
    if k == 0:
        raise ValueError("cannot linearize a degree-0 polynomial")
    C = np.zeros((n * k, n * k))
    for i in range(k - 1):
        C[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    for s in range(k):
        C[(k - 1) * n:, s * n:(s + 1) * n] = -P.coeffs[s] / lead[:, None]
    return C


def _refine_vectors(P: MatrixPolynomial, values: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One inverse-iteration step per row, v_q <- P(values[q])^{-1} v_q
    normalised; companion vectors lose accuracy for large |lambda|, and
    Jacobian entries depend quadratically on v.  A row whose solve is
    singular or gives a zero or non-finite result keeps its input."""
    out = V.copy()
    for blk in _row_blocks(len(values), P.n):
        A = evaluate(P, values[blk])
        try:
            W = np.linalg.solve(A, V[blk, :, None])[..., 0]
        except np.linalg.LinAlgError:
            W = np.full_like(V[blk], np.nan)
            for i, (a, v) in enumerate(zip(A, V[blk])):
                try:
                    W[i] = np.linalg.solve(a, v)
                except np.linalg.LinAlgError:
                    pass
        norms = np.linalg.norm(W, axis=1)
        ok = np.isfinite(norms) & (norms != 0.0)
        out[blk][ok] = W[ok] / norms[ok, None]
    return out


def _proper_vectors(P: MatrixPolynomial, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Unit proper vectors from the top n rows of the companion eigenvectors:
    the larger of the real and imaginary parts, normalised, refined, with the
    largest-magnitude component made positive.  At degree 1 the rows are
    D^{-1/2} times the eigh vectors of the pencil, exact up to scale, so
    they are not refined."""
    use_imag = np.linalg.norm(rows.imag, axis=1) > np.linalg.norm(rows.real, axis=1)
    V = np.where(use_imag[:, None], rows.imag, rows.real)
    norms = np.linalg.norm(V, axis=1)
    zero = norms == 0.0
    V[zero] = 1.0
    norms[zero] = np.sqrt(P.n)
    V = V / norms[:, None]
    if P.degree > 1:
        V = _refine_vectors(P, values, V)
    # deterministic sign: largest-magnitude component positive
    lead = V[np.arange(len(V)), np.argmax(np.abs(V), axis=1)]
    V[lead < 0] *= -1.0
    return V


def _pencil(P: MatrixPolynomial) -> np.ndarray:
    """-D^{-1/2} A_0 D^{-1/2} for a degree-1 P = A_0 + zD, whose eigenvalues
    are the proper values of P.  Entry (r, r) is -A_0[r, r] / D[r, r],
    exactly as linearize writes it.  Raises InvariantViolation when A_0 is
    not symmetric: eigh reads one triangle only."""
    lead = _check_leading(P)
    A0 = P.coeffs[0]
    if not np.array_equal(A0, A0.T, equal_nan=True):
        raise InvariantViolation("the constant coefficient of a degree-1 polynomial must be symmetric")
    root = np.sqrt(lead)
    M = -A0 / np.outer(root, root)
    M[np.diag_indices_from(M)] = -np.diag(A0) / lead
    return M


def _companion(P: MatrixPolynomial) -> np.ndarray:
    """The matrix whose eigenvalues are the proper values of P: linearize(P),
    or _pencil(P) at degree 1."""
    return _pencil(P) if P.degree == 1 else linearize(P)


def _check_separation(vals: np.ndarray, sep_tol: float | None) -> None:
    """Raise NearDegenerate if two ascending values are closer than sep_tol
    (default SEP_TOL_REL times the spectrum diameter)."""
    if sep_tol is None:
        diam = vals[-1] - vals[0] if len(vals) > 1 else 0.0
        sep_tol = SEP_TOL_REL * max(diam, 1.0)
    gaps = np.diff(vals)
    if len(gaps) and np.min(gaps) < sep_tol:
        q = int(np.argmin(gaps))
        raise NearDegenerate(
            f"proper values {vals[q]:.12g} and {vals[q + 1]:.12g} closer than sep_tol {sep_tol:.3g}"
        )


def _spectrum(C: np.ndarray, lead: np.ndarray, sep_tol: float | None):
    """Proper values of the polynomial whose _companion is C (leading
    diagonal ``lead``) with the checks of proper_values: the ascending
    values and, row q for values[q], the top n rows of the corresponding
    eigenvectors of linearize(P)."""
    n = len(lead)
    if len(C) == n:
        vals, U = np.linalg.eigh(C)
        if not np.all(np.isfinite(vals)):
            raise np.linalg.LinAlgError("pencil matrix has an infinite or NaN entry")
        _check_separation(vals, sep_tol)
        return vals, (U / np.sqrt(lead)[:, None]).T
    w, V = np.linalg.eig(C)
    bad = np.abs(w.imag) > REAL_TOL_DEFAULT * (1.0 + np.abs(w.real))
    if np.any(bad):
        raise NonRealSpectrum(
            f"{int(bad.sum())} eigenvalue(s) with non-negligible imaginary part "
            f"(max |imag| = {np.max(np.abs(w.imag)):.3g})"
        )
    order = np.argsort(w.real, kind="stable")
    vals = w.real[order]
    _check_separation(vals, sep_tol)
    return vals, V[:n, order].T


def proper_values(P: MatrixPolynomial, sep_tol: float | None = None) -> SpectralDecomposition:
    """All nk proper values of P, ascending: eig of linearize(P), or for
    degree 1 eigh of the symmetric pencil matrix -D^{-1/2} A_0 D^{-1/2}.

    The unit proper vectors are selected, and at degree k >= 2 refined, only
    when the returned decomposition's ``vectors`` is first read (see
    SpectralDecomposition).  CompanionTemplate.proper_values runs the same
    eigensolver and checks on a matrix patched in place of this one.

    Raises NonRealSpectrum if any companion eigenvalue has relative
    imaginary part above REAL_TOL_DEFAULT, and NearDegenerate if two returned
    values are closer than ``sep_tol`` (default SEP_TOL_REL times the
    spectrum diameter).  Both signal that the simple-real regime the rest
    of the package relies on has been left.  NonRealSpectrum cannot occur
    at degree 1, where the spectrum of the pencil is real; there a
    non-symmetric A_0 raises InvariantViolation.
    """
    vals, rows = _spectrum(_companion(P), np.diag(P.coeffs[-1]), sep_tol)
    return SpectralDecomposition(values=vals, polynomial=P, companion_rows=rows)


@dataclass(frozen=True)
class CompanionTemplate:
    """_companion(P) of a fixed P (linearize(P), or the symmetric pencil
    matrix at degree 1), for the proper values of polynomials that differ
    from P only on the diagonals of the non-leading coefficients.

    Entry (r, r) of A_s sits in the matrix at row (k-1)n + r, column sn + r
    (at degree 1: (r, r)), as -A_s[r, r] / lead[r], exactly as _companion
    writes it; so proper_values(d) gives bitwise the values of proper_values
    applied to P with diag(A_s) = d[sn:(s+1)n], without building that
    polynomial or checking its leading coefficient, or at degree 1 the
    symmetry of A_0, again.
    """

    matrix: np.ndarray
    n: int
    diagonal: tuple[np.ndarray, np.ndarray]  # (row, column) of entry d[sn + r]
    lead: np.ndarray  # the leading diagonal repeated k times, one entry per unknown
    sep_tol: float | None = None

    @classmethod
    def of(cls, P: MatrixPolynomial, sep_tol: float | None = None) -> "CompanionTemplate":
        n, nk = P.n, P.n * P.degree
        unknowns = np.arange(nk)
        return cls(matrix=_companion(P), n=n, diagonal=(nk - n + unknowns % n, unknowns),
                   lead=np.tile(np.diag(P.coeffs[-1]), P.degree), sep_tol=sep_tol)

    def proper_values(self, d: np.ndarray) -> SpectralDecomposition:
        """Ascending proper values for the diagonals d (s-major), with the
        checks of proper_values at this template's ``sep_tol``.  The result
        carries no polynomial, so its ``vectors`` cannot be read until one
        is attached (dataclasses.replace)."""
        d = np.asarray(d, dtype=float)
        if d.shape != self.lead.shape:
            raise ValueError(f"diagonals have shape {d.shape}, expected {self.lead.shape}")
        C = self.matrix.copy()
        C[self.diagonal] = -d / self.lead
        vals, rows = _spectrum(C, self.lead[:self.n], self.sep_tol)
        return SpectralDecomposition(values=vals, polynomial=None, companion_rows=rows)
