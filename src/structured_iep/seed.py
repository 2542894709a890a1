"""Diagonal seed polynomial with prescribed proper values.

Target q (1-based, in the user's input order) is assigned to diagonal
entry r = ceil(q/k), so entry r of the seed is the scalar polynomial
alpha_k[r] * prod(z - lambda_q) over its k assigned targets.  Input-order
assignment is deliberate: it gives users control over which targets share
a diagonal entry.  TargetSpectrum.blocks is the one place that reads that
order; the seed, the seed predictor and the seed Jacobian check all take
their targets from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation, check_integer, real_vector
from .matpoly import MatrixPolynomial, SEP_TOL_REL


@dataclass(frozen=True)
class TargetSpectrum:
    values: np.ndarray  # length n*k, input order: a read-only float64 copy
    n: int
    k: int

    def __post_init__(self):
        check_integer("n", self.n)
        check_integer("k", self.k)
        if self.n < 1 or self.k < 1:
            raise InvariantViolation(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        vals = real_vector("target values", self.values, self.n * self.k)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if np.min(self.gaps) < SEP_TOL_REL * self.scale:
            raise InvariantViolation("target values must be pairwise distinct")

    @cached_property
    def scale(self) -> float:
        """max(max - min, 1) over the targets, 1 for a single one: the
        scale of the target separation check, of the solver's separation
        check (spectral_map, so every Newton trial) and of the Newton and
        corrector residuals.  proper_values, and so verify, the seed and
        jacobian commands and jacobian_fd, scales its separation check by
        max(diameter, 1) of the computed values instead."""
        return max(float(np.max(self.values) - np.min(self.values)), 1.0)

    def sorted_values(self) -> np.ndarray:
        """The values, ascending: one read-only array, sorted on first use."""
        return self._ascending

    @cached_property
    def _ascending(self) -> np.ndarray:
        vals = np.sort(self.values)
        vals.flags.writeable = False
        return vals

    @cached_property
    def gaps(self) -> np.ndarray:
        """Entry q: the distance from sorted target q to its nearest other
        target, inf when there is one target.  One read-only array, built on
        first use: the seed predictor's and the vector-reuse gate's scale."""
        ascending = self._ascending
        sides = np.full(len(ascending) + 1, np.inf)
        sides[1:-1] = ascending[1:] - ascending[:-1]
        gaps = np.minimum(sides[:-1], sides[1:])
        gaps.flags.writeable = False
        return gaps

    @property
    def blocks(self) -> np.ndarray:
        """(n, k) view of the values: row r holds diagonal entry r's targets."""
        return self.values.reshape(self.n, self.k)


@dataclass(frozen=True)
class LeadingDiagonal:
    alpha_k: np.ndarray  # length n, strictly positive: a read-only float64 copy

    def __post_init__(self):
        a = real_vector("leading diagonal", self.alpha_k)
        a.flags.writeable = False
        object.__setattr__(self, "alpha_k", a)
        if np.any(a <= 0.0):
            raise InvariantViolation("leading diagonal entries must be strictly positive")


def seed_unknowns(spec: TargetSpectrum, lead: LeadingDiagonal) -> np.ndarray:
    """The diagonals of A_0 .. A_{k-1} of seed_coefficients(spec, lead),
    flattened s-major (x[s*n + r]), without building its matrices.

    Coefficient s of entry r is (-1)^(k-s) * alpha_k[r] * e_{k-s}(r's
    targets), the elementary symmetric polynomials e_j built for every entry
    at once by prepending one root at a time (O(nk^2), not the O(2^k) subset
    sum they equal).
    """
    n, k = spec.n, spec.k
    if lead.alpha_k.shape != (n,):
        raise InvariantViolation(f"leading diagonal has length {lead.alpha_k.shape[0]}, expected {n}")
    e = np.zeros((n, k + 1))  # e[r, j] = e_j of entry r's targets
    e[:, 0] = 1.0
    for root in spec.blocks.T:
        e[:, 1:] = e[:, 1:] + root[:, None] * e[:, :-1]
    x = ((-1.0) ** (k - np.arange(k))[:, None] * lead.alpha_k * e[:, :0:-1].T).ravel()
    if not np.isfinite(x).all():
        raise InvariantViolation("seed coefficients are not finite: targets or leading diagonal too large")
    return x


def seed_coefficients(spec: TargetSpectrum, lead: LeadingDiagonal) -> MatrixPolynomial:
    """Diagonal matrix polynomial whose entry (r,r) is
    alpha_k[r] * prod(z - lambda_q) over the targets in row r of spec.blocks."""
    blocks = seed_unknowns(spec, lead).reshape(spec.k, spec.n)
    return MatrixPolynomial(tuple(np.diag(d) for d in blocks) + (np.diag(lead.alpha_k),))
