"""First-order sensitivities of simple proper values and the spectral Jacobian.

For a simple proper pair (lambda, v) of P and a perturbation direction
B(z) = sum_s z^s B_s with symmetric B_s, the derivative of the tracked
proper value is the Rayleigh-quotient formula (Andrew, Chu & Lancaster,
SIAM J. Matrix Anal. Appl. 14, 1993)

    d lambda = -(v^T B(lambda) v) / (v^T P'(lambda) v).

At a diagonal seed with v = e_r this is -lambda^s / P'(lambda)_rr for the
(r,r) slot of coefficient s and exactly 0 for every off-diagonal slot.
A ratio of quadratic forms in v, it reads the proper vectors at the
eigensolver's scale and sign.  This module owns the whole quotient:
jacobian_x applies it to every diagonal slot and, given a coefficient row
[B_0 B_1 ...] such as the continuation's ramp, to that direction too, in
one pass that forms V o V once and reads P' from the decomposition's
coefficients and leading diagonal.  The tangent's J and dlambda/dtau thus
share one computation of the denominators; one too small for its scale
raises DegenerateDenominator.  The derivative along any one coefficient
slot, diagonal or off-diagonal, is jacobian_x's direction column given
that slot's direction row.  Away from the seed the formula is
cross-validated against central differences, a reference that lives with
the tests (tests/conftest.py).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDenominator, real_row
# perfbench/layers.py wraps evaluate and proper_values at this module,
# though nothing here calls either
from .matpoly import SpectralDecomposition, evaluate, proper_values  # noqa: F401
from .seed import TargetSpectrum

DENOM_TOL = 1e-10


def _forms(V: np.ndarray, A: np.ndarray) -> np.ndarray:
    """v_q^T A_s v_q (row q, column s) for the rows v_q of V and the blocks
    of A = [A_0 A_1 ...]."""
    m, n = V.shape
    return np.add.reduce((V @ A).reshape(m, -1, n) * V[:, None, :], axis=2)


def _denominators(decomp: SpectralDecomposition, sq: np.ndarray) -> np.ndarray:
    """v_q^T P'(lambda_q) v_q for each pair (lambda_q, v_q) of ``decomp``,
    sq = V o V its squared rows, with A_k = diag(lead) and A_s (0 < s < k)
    the blocks of ``upper``.  Raises DegenerateDenominator when one is at
    most DENOM_TOL ||v_q||^2 times the scale sum_s s ||A_s||_F
    |lambda_q|^(s-1) of P' (numerically non-simple value, or a zero row)."""
    lead, lams, upper = decomp.lead, decomp.values, decomp.upper
    n = len(lead)
    k = upper.shape[1] // n + 1
    den = k * (sq @ lead)
    scale = k * math.sqrt(lead @ lead)  # k ||A_k||_F
    if k > 1:
        forms = _forms(decomp.companion_rows, upper)
        size = np.abs(lams)
        for s in range(k - 1, 0, -1):  # Horner in lams, highest power first
            block = upper[:, (s - 1) * n:s * n]
            den = den * lams + s * forms[:, s - 1]
            scale = scale * size + s * math.sqrt(np.vdot(block, block))
    # ufunc reductions called directly: at small n the ndarray methods'
    # Python wrappers cost more than the reductions themselves
    small = np.abs(den) <= DENOM_TOL * scale * np.add.reduce(sq, axis=1)
    if np.logical_or.reduce(small):
        q = int(small.argmax())
        raise DegenerateDenominator(
            f"row {q}: |v^T P'(lambda) v| = {abs(den[q]):.3g} at lambda = {lams[q]:.12g}: "
            "value numerically non-simple"
        )
    return den


def jacobian_x(decomp: SpectralDecomposition, direction: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of the ascending proper values w.r.t. the kn diagonal unknowns.

    Row q is the q-th pair of ``decomp``; column s*n + r is diagonal entry r
    of coefficient s: -lambda_q^s v_r^2 / (v^T P'(lambda_q) v) for the row
    v = decomp.companion_rows[q], whose scale and sign cancel.  Given a
    coefficient row ``direction`` [B_0 B_1 ...], one more column holds
    -(sum_s lambda_q^s v^T B_s v) / (v^T P'(lambda_q) v) with the same
    denominators: for the ramp spec.ramp_row, dlambda/dtau, which is zero
    at a diagonal seed (unit rows v, a ramp with a zero diagonal).  A
    direction that breaks errors.real_row's rule (finite, n rows, a
    positive multiple of n columns) raises InvariantViolation.
    """
    lams, V = decomp.values, decomp.companion_rows
    sq = V * V
    m, n = sq.shape
    if direction is not None:
        direction = real_row("direction", direction, n)
    k = decomp.upper.shape[1] // n + 1
    den = _denominators(decomp, sq)
    J = np.empty((m, k * n + (direction is not None)))
    factor = -1.0 / den
    for s in range(k):  # block s: the column factor -lambda_q^s / den_q times V o V
        if s:
            factor = factor * lams
        np.multiply(factor[:, None], sq, out=J[:, s * n:(s + 1) * n])
    if direction is not None:
        num = (lams[:, None] ** np.arange(direction.shape[1] // n) * _forms(V, direction)).sum(axis=1)
        J[:, -1] = -num / den
    return J


def seed_vandermonde_check(
    spec: TargetSpectrum,
    decomp: SpectralDecomposition,
    J: np.ndarray,
) -> dict:
    """Structure check of the Jacobian J of ``decomp``, the decomposition
    of a diagonal seed P, in jacobian_x's layout.

    Target q is row q of spec.blocks flattened, so it belongs to diagonal
    entry q // k.  Row i of J is the i-th smallest value, at the seed the
    i-th smallest target; let r be its entry.  Negated and scaled by
    (P'(lambda_i))_rr (the denominator of the unit row e_r with decomp's
    coefficients), row i must read lambda_i^s in column s*n + r and 0 in
    every other column: up to a permutation, a block diagonal of n
    Vandermonde blocks (1, lam, ..., lam^(k-1)).  Returns
    the maximum relative entrywise deviation, the off-block leakage, the
    condition number of J, and ``passed``: the check's one pass rule, both
    deviations at most 1e-12.
    """
    n, k = spec.n, spec.k
    col = np.arange(n * k)
    entry = np.argsort(spec.blocks.ravel(), kind="stable") // k  # 0-based entry of row i
    own = col % n == entry[:, None]  # columns s*n + r of row i's own entry r
    units = np.eye(n)[entry]
    den = _denominators(SpectralDecomposition(decomp.values, units, decomp.upper, decomp.lead), units * units)
    scaled = -(J * den[:, None])
    expected = np.where(own, decomp.values[:, None] ** (col // n), 0.0)
    # relative entrywise deviation: powers of lambda grow quickly, so an
    # absolute comparison would just measure magnitude times roundoff
    diff = np.abs(scaled - expected) / np.maximum(1.0, np.abs(expected))
    max_entry_error = float(np.max(diff))
    max_offblock = float(np.max(np.abs(np.where(own, 0.0, scaled))))
    return {
        "max_entry_error": max_entry_error,
        "max_offblock": max_offblock,
        "condition": float(np.linalg.cond(J)),
        "passed": max_entry_error <= 1e-12 and max_offblock <= 1e-12,
    }
