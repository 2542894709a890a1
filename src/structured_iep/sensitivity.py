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
pair as the decomposition.  Every denominator comes from one kernel, which
reads P' back from a companion matrix, and every form v^T A v from a
single matrix product.
Away from the seed the formula is the standard simple-eigenvalue one and is
cross-validated against finite differences (jacobian_fd) rather than taken
on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
# perfbench/layers.py wraps evaluate at this module, though nothing here calls it
from .matpoly import MatrixPolynomial, SpectralDecomposition, evaluate, linearize, proper_values  # noqa: F401
from .seed import TargetSpectrum

DENOM_TOL = 1e-10


@dataclass(frozen=True)
class PerturbationDirection:
    """Perturb coefficient s: either diagonal entry r (1-based) or the
    symmetric off-diagonal pair {i, j}."""

    s: int
    diag: int | None = None
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.diag is None) == (self.edge is None):
            raise ValueError("specify exactly one of diag or edge")


def _forms(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """v_q^T A_s v_q (row q, column s) for the rows v_q of V and the blocks of A = [A_0 A_1 ...]."""
    m, n = V.shape
    return np.sum((V @ A).reshape(m, -1, n) * V[:, None, :], axis=2)


def _denominators(lead: np.ndarray, companion: np.ndarray, lams: np.ndarray, V: np.ndarray,
                  check: bool = True) -> np.ndarray:
    """v_q^T P'(lambda_q) v_q for each value lams[q] and row V[q] (any
    scale), with A_k = diag(lead) and A_s = -diag(lead) C_s (0 < s < k) read
    from the last block row [C_0 ... C_{k-1}] of P's ``companion`` matrix.
    With ``check``, raises DegenerateDenominator when one is at most
    DENOM_TOL ||v_q||^2 times the scale sum_s s ||A_s||_F |lambda_q|^(s-1)
    of P' (numerically non-simple value, or a zero row)."""
    n = len(lead)
    k = len(companion) // n
    sq = V * V
    den = k * (sq @ lead)
    scale = k * np.linalg.norm(lead)
    if k > 1:
        upper = companion[-n:, n:] * -lead[:, None]  # [A_1 ... A_{k-1}]
        forms = _forms(upper, V)
        norms = np.sqrt((upper * upper).reshape(n, k - 1, n).sum(axis=(0, 2)))
        for s in range(k - 1, 0, -1):  # Horner in lams, highest power first
            den = den * lams + s * forms[:, s - 1]
            scale = scale * np.abs(lams) + s * norms[s - 1]
    small = np.abs(den) <= DENOM_TOL * scale * sq.sum(axis=1)
    if check and small.any():
        q = int(np.argmax(small))
        raise DegenerateDenominator(
            f"row {q}: |v^T P'(lambda) v| = {abs(den[q]):.3g} at lambda = {lams[q]:.12g}: "
            "value numerically non-simple"
        )
    return den


def eigderivative(
    P: MatrixPolynomial,
    pair: tuple[float, np.ndarray],
    direction: PerturbationDirection,
) -> float:
    """Derivative of the simple proper value in ``pair`` (its vector at any
    scale) along ``direction``: tau_derivative of the one pair, with the
    direction B(z) = z^s E as the polynomial.  P needs a positive diagonal
    A_k."""
    if not (0 <= direction.s < P.degree):
        raise ValueError(f"power index {direction.s} out of range 0..{P.degree - 1}")
    lam, v = pair
    coeffs = np.zeros((direction.s + 1, P.n, P.n))
    i, j = (direction.diag,) * 2 if direction.diag is not None else direction.edge
    coeffs[direction.s, i - 1, j - 1] = coeffs[direction.s, j - 1, i - 1] = 1.0
    decomp = SpectralDecomposition(np.array([lam], dtype=float), np.asarray(v, dtype=float)[None, :],
                                   linearize(P), np.diag(P.coeffs[-1]))
    return float(tau_derivative(decomp, MatrixPolynomial(tuple(coeffs)))[0])


def jacobian_x(decomp: SpectralDecomposition) -> np.ndarray:
    """Jacobian of the ascending proper values w.r.t. the kn diagonal unknowns.

    Row q is the q-th pair of ``decomp``; column s*n + r is diagonal entry r
    of coefficient s: -lambda_q^s v_r^2 / (v^T P'(lambda_q) v) for the row
    v = decomp.companion_rows[q], whose scale and sign cancel.  P' comes
    from ``decomp.companion``.
    """
    lam, V = decomp.values, decomp.companion_rows
    nk, n = V.shape
    den = _denominators(decomp.lead, decomp.companion, lam, V)
    powers = lam[:, None] ** np.arange(nk // n)
    return (-powers[:, :, None] * (V ** 2)[:, None, :] / den[:, None, None]).reshape(nk, nk)


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
    lam, V = decomp.values, decomp.companion_rows
    num = np.sum(lam[:, None] ** np.arange(len(D.coeffs)) * _forms(np.hstack(D.coeffs), V), axis=1)
    return -num / _denominators(decomp.lead, decomp.companion, lam, V)


def jacobian_fd(
    P: MatrixPolynomial,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian: re-solve proper values with each diagonal
    unknown perturbed by +-h, rows in ascending order."""
    if h <= 0:
        raise ValueError("step must be positive")
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
    (P' read from decomp's companion, as jacobian_x reads it), and
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
    # (P'(lambda_q))_rr as the quadratic form of P' with the unit vector e_r
    den = _denominators(decomp.lead, decomp.companion, lam, np.eye(n)[entry], check=False)
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
