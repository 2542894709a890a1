"""Diagonal seed polynomial with prescribed proper values.

Target q (1-based, in the user's input order) is assigned to diagonal
entry r = ceil(q/k), so entry r of the seed is the scalar polynomial
alpha_k[r] * prod(z - lambda_q) over its k assigned targets.  Input-order
assignment is deliberate: it gives users control over which targets share
a diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .matpoly import MatrixPolynomial, SEP_TOL_REL


@dataclass(frozen=True)
class TargetSpectrum:
    values: np.ndarray  # length n*k, input order
    n: int
    k: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.n < 1 or self.k < 1:
            raise InvariantViolation(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if vals.shape != (self.n * self.k,):
            raise InvariantViolation(
                f"expected {self.n * self.k} target values, got {vals.shape[0] if vals.ndim == 1 else vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvariantViolation("target values must be finite")
        srt = np.sort(vals)
        diam = max(srt[-1] - srt[0], 1.0) if len(srt) > 1 else 1.0
        if len(srt) > 1 and np.min(np.diff(srt)) < SEP_TOL_REL * diam:
            raise InvariantViolation("target values must be pairwise distinct")

    @property
    def diameter(self) -> float:
        return float(np.max(self.values) - np.min(self.values)) if len(self.values) > 1 else 0.0

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values)


@dataclass(frozen=True)
class LeadingDiagonal:
    alpha_k: np.ndarray  # length n, strictly positive

    def __post_init__(self):
        a = np.asarray(self.alpha_k, dtype=float)
        object.__setattr__(self, "alpha_k", a)
        if a.ndim != 1 or not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise InvariantViolation("leading diagonal entries must be finite and strictly positive")


def elementary_symmetric(roots, j: int) -> float:
    """e_j(roots): sum over all j-subsets of the product of their elements.

    Computed by the one-pass recurrence (prepend one root at a time),
    O(k^2) instead of the O(2^k) subset sum it equals.
    """
    roots = np.asarray(roots, dtype=float)
    k = len(roots)
    if not (0 <= j <= k):
        raise ValueError(f"j={j} out of range 0..{k}")
    e = np.zeros(j + 1)
    e[0] = 1.0
    for r in roots:
        for t in range(min(j, k), 0, -1):
            e[t] = e[t] + r * e[t - 1]
    return float(e[j])


def block_assignment(spec: TargetSpectrum) -> dict[int, int]:
    """Map target index q (1-based, input order) to diagonal entry r = ceil(q/k)."""
    return {q: (q - 1) // spec.k + 1 for q in range(1, spec.n * spec.k + 1)}


def block_roots(spec: TargetSpectrum, r: int) -> np.ndarray:
    """The k targets assigned to diagonal entry r (1-based)."""
    return spec.values[(r - 1) * spec.k: r * spec.k]


def seed_coefficients(spec: TargetSpectrum, lead: LeadingDiagonal) -> MatrixPolynomial:
    """Diagonal matrix polynomial whose entry (t,t) is
    alpha_k[t] * prod(z - lambda_q) over the targets assigned to t.

    Coefficient s of entry t is (-1)^(k-s) * alpha_k[t] * e_{k-s}(assigned
    targets).
    """
    n, k = spec.n, spec.k
    if lead.alpha_k.shape != (n,):
        raise InvariantViolation(f"leading diagonal has length {lead.alpha_k.shape[0]}, expected {n}")
    coeffs = [np.zeros((n, n)) for _ in range(k + 1)]
    for t in range(1, n + 1):
        roots = block_roots(spec, t)
        for s in range(k):
            coeffs[s][t - 1, t - 1] = (
                (-1.0) ** (k - s) * lead.alpha_k[t - 1] * elementary_symmetric(roots, k - s)
            )
        coeffs[k][t - 1, t - 1] = lead.alpha_k[t - 1]
    if not all(np.all(np.isfinite(c)) for c in coeffs):
        raise InvariantViolation("seed coefficients are not finite: targets or leading diagonal too large")
    return MatrixPolynomial(tuple(coeffs))


def seed_diagonals(seed: MatrixPolynomial) -> np.ndarray:
    """Diagonal unknowns of a seed, flattened s-major: x[s*n + r]."""
    n, k = seed.n, seed.degree
    return np.concatenate([np.diag(seed.coeffs[s]) for s in range(k)])
