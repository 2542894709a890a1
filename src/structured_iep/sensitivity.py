"""First-order sensitivities of simple proper values and the spectral Jacobian.

For a simple proper pair (lambda, v) of P and a symmetric one-slot
perturbation direction B(z) = z^s * E (E with a single unit diagonal entry,
or a symmetric pair of unit off-diagonal entries), the derivative of the
tracked proper value is the Rayleigh-quotient formula

    d lambda = -(v^T B(lambda) v) / (v^T P'(lambda) v).

At a diagonal seed with v = e_r this reduces to -lambda^s / P'(lambda)_rr
for the (r,r) diagonal slot and to exactly 0 for every off-diagonal slot.
It is a ratio of quadratic forms in v, so the scale and sign of v cancel:
jacobian_x applies it to every diagonal slot at once, and tau_derivative to
a whole polynomial direction (the continuation's off-diagonal ramp), both
with the proper vectors as the eigensolver returned them.  eigderivative
runs on tau_derivative, with B as the direction and one (value, vector)
pair, with P's own coefficients, as the decomposition.  Every denominator
is the decomposition's own cached ``denominators`` (matpoly), read from
its coefficients [A_1 ... A_{k-1}] and leading diagonal, so the
continuation's tangent, which needs J and dlambda/dtau at one point,
computes v^T P'(lambda) v once.
Away from the seed the formula is the standard simple-eigenvalue one and is
cross-validated against finite differences (jacobian_fd) rather than taken
on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_integer, check_real
# perfbench/layers.py wraps evaluate at this module, though nothing here calls it
from .matpoly import MatrixPolynomial, SpectralDecomposition, evaluate, proper_values  # noqa: F401
from .seed import TargetSpectrum


@dataclass(frozen=True)
class PerturbationDirection:
    """Perturb coefficient s: either diagonal entry r or the symmetric
    off-diagonal pair {i, j}, i != j (vertices 1-based)."""

    s: int
    diag: int | None = None
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        check_integer("power index", self.s, ValueError)
        if (self.diag is None) == (self.edge is None):
            raise ValueError("specify exactly one of diag or edge")
        for vertex in (self.diag,) if self.edge is None else self.edge:
            check_integer("vertex", vertex, ValueError)
        if self.edge is not None and self.edge[0] == self.edge[1]:
            raise ValueError(f"edge {self.edge} joins a vertex to itself: use diag")


def eigderivative(
    P: MatrixPolynomial,
    pair: tuple[float, np.ndarray],
    direction: PerturbationDirection,
) -> float:
    """Derivative of the simple proper value in ``pair`` (its vector at any
    scale) along ``direction``: tau_derivative of the one pair, with the
    direction B(z) = z^s E as the polynomial.  Raises ValueError unless the
    pair is a finite real value and a finite vector of length n, and
    LeadingCoefficientError unless A_k is diagonal and positive."""
    if not (0 <= direction.s < P.degree):
        raise ValueError(f"power index {direction.s} out of range 0..{P.degree - 1}")
    i, j = (direction.diag,) * 2 if direction.diag is not None else direction.edge
    if not (1 <= i <= P.n and 1 <= j <= P.n):
        raise ValueError(f"entry ({i}, {j}) out of range 1..{P.n}")
    lam, v = pair
    check_real("pair value", lam, ValueError)
    if not math.isfinite(lam):
        raise ValueError(f"pair value must be finite, got {lam}")
    v = np.asarray(v, dtype=float)
    if v.shape != (P.n,) or not np.isfinite(v).all():
        raise ValueError(f"pair vector must be finite with shape ({P.n},), got shape {v.shape}")
    coeffs = np.zeros((direction.s + 1, P.n, P.n))
    coeffs[direction.s, i - 1, j - 1] = coeffs[direction.s, j - 1, i - 1] = 1.0
    decomp = SpectralDecomposition(np.array([lam], dtype=float), v[None, :],
                                   np.hstack(P.coeffs[:-1])[:, P.n:], P.leading_diagonal())
    return float(tau_derivative(decomp, MatrixPolynomial(tuple(coeffs)))[0])


def jacobian_x(decomp: SpectralDecomposition) -> np.ndarray:
    """Jacobian of the ascending proper values w.r.t. the kn diagonal unknowns.

    Row q is the q-th pair of ``decomp``; column s*n + r is diagonal entry r
    of coefficient s: -lambda_q^s v_r^2 / (v^T P'(lambda_q) v) for the row
    v = decomp.companion_rows[q], whose scale and sign cancel.  The
    denominators are decomp.denominators.
    """
    lams, V = decomp.values, decomp.companion_rows
    sq = V * V
    nk, n = sq.shape
    factors = np.empty((nk, nk // n))
    factors[:, 0] = -1.0 / decomp.denominators
    for s in range(1, nk // n):  # the column factors -lambda_q^s / den_q
        factors[:, s] = factors[:, s - 1] * lams
    return (factors[:, :, None] * sq[:, None, :]).reshape(nk, nk)


def tau_derivative(decomp: SpectralDecomposition, D: MatrixPolynomial) -> np.ndarray:
    """Derivative at tau = 0 of the ascending proper values of P + tau * D (P
    the polynomial of ``decomp``), the Rayleigh-quotient formula with B = D:

        d lambda_q / d tau = -(v_q^T D(lambda_q) v_q) / (v_q^T P'(lambda_q) v_q).

    With D(z) = sum_s z^s Y_s, Y_s the prescribed off-diagonals of
    coefficient s, this is the rate at which the continuation in the
    off-diagonal scale moves the values, with v_q = decomp.companion_rows[q].
    It vanishes wherever every v_q is a multiple of a unit vector (a
    diagonal seed), because D has a zero diagonal.
    """
    den = decomp.denominators
    num = (decomp.values[:, None] ** np.arange(len(D.coeffs)) * decomp.forms(np.hstack(D.coeffs))).sum(axis=1)
    return -num / den


def jacobian_fd(
    P: MatrixPolynomial,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian: re-solve proper values with each diagonal
    unknown perturbed by +-h, rows in ascending order."""
    check_real("step", h, ValueError)
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h}")
    n, k = P.n, P.degree
    nk = n * k
    J = np.empty((nk, nk))
    for s in range(k):
        for r in range(n):
            col = s * n + r
            plus = _perturbed_values(P, s, r, +h)
            minus = _perturbed_values(P, s, r, -h)
            J[:, col] = (plus - minus) / (2.0 * h)
    return J


def _perturbed_values(P: MatrixPolynomial, s: int, r: int, delta: float) -> np.ndarray:
    coeffs = [np.array(c, copy=True) for c in P.coeffs]
    coeffs[s][r, r] += delta
    return proper_values(MatrixPolynomial(tuple(coeffs))).values


def seed_vandermonde_check(
    spec: TargetSpectrum,
    decomp: SpectralDecomposition,
    J: np.ndarray,
) -> dict:
    """Structure check of the Jacobian J of ``decomp``, the decomposition
    of a diagonal seed P.

    Target q is row q of spec.blocks flattened, so it belongs to diagonal
    entry r = q // k.  After negating, scaling row q by (P'(lambda_q))_rr
    (the denominators of the unit rows e_r with decomp's coefficients), and
    permuting rows into these target blocks and columns into diagonal-entry
    blocks, the Jacobian must be block diagonal with n Vandermonde blocks
    (1, lam, ..., lam^(k-1)).  Returns the scaled matrix,
    the expected Vandermonde form, the maximum relative entrywise deviation,
    and off-block leakage.
    """
    n, k = spec.n, spec.k
    nk = n * k
    entry = np.repeat(np.arange(n), k)  # 0-based entry of target q
    # row for target q = position of lambda_q in the ascending decomposition
    order = np.argsort(spec.blocks.ravel(), kind="stable")
    row_of_target = np.empty(nk, dtype=int)
    row_of_target[order] = np.arange(nk)
    lam = decomp.values[row_of_target]
    # (P'(lambda_q))_rr: the denominators of the unit rows e_r, in ascending order
    units = SpectralDecomposition(decomp.values, np.eye(n)[entry[order]], decomp.upper, decomp.lead)
    den = units.denominators[row_of_target]
    # column s*n + r' of J goes to column r'*k + s: one block of k per entry
    scaled = -(J[row_of_target] * den[:, None]).reshape(nk, k, n).transpose(0, 2, 1).reshape(nk, nk)
    own = np.zeros((nk, n, k), dtype=bool)
    own[np.arange(nk), entry] = True
    own = own.reshape(nk, nk)
    expected = np.zeros((nk, nk))
    expected[own] = (lam[:, None] ** np.arange(k)).ravel()
    # relative entrywise deviation: powers of lambda grow quickly, so an
    # absolute comparison would just measure magnitude times roundoff
    diff = np.abs(scaled - expected) / np.maximum(1.0, np.abs(expected))
    offblock = np.where(own, 0.0, scaled)
    return {
        "scaled": scaled,
        "expected": expected,
        "max_entry_error": float(np.max(diff)),
        "max_offblock": float(np.max(np.abs(offblock))),
        "condition": float(np.linalg.cond(J)),
    }
