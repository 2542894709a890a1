import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structured_iep import (
    InvariantViolation,
    LeadingDiagonal,
    TargetSpectrum,
    proper_values,
    seed_coefficients,
    seed_unknowns,
)

from conftest import TARGETS, random_targets


def subset_sum_oracle(roots, j):
    """e_j by brute-force enumeration of all j-subsets."""
    return sum(math.prod(sub) for sub in itertools.combinations(roots, j))


class TestElementarySymmetric:
    """Coefficient s of seed entry r is (-1)^(k-s) * alpha_r * e_{k-s} of the
    targets in row r of spec.blocks."""

    def test_pair_minus_two_minus_four(self):
        P = seed_coefficients(TargetSpectrum(values=np.array([-2.0, -4.0]), n=1, k=2),
                              LeadingDiagonal(alpha_k=np.ones(1)))
        assert P.coeffs[1][0, 0] == 6.0  # -e_1
        assert P.coeffs[0][0, 0] == 8.0  # e_2

    def test_pair_minus_six_minus_eight(self):
        P = seed_coefficients(TargetSpectrum(values=np.array([-6.0, -8.0]), n=1, k=2),
                              LeadingDiagonal(alpha_k=np.ones(1)))
        assert P.coeffs[1][0, 0] == 14.0
        assert P.coeffs[0][0, 0] == 48.0

    def test_j_zero_is_one(self):
        # the leading coefficient is alpha * e_0 = alpha, exactly
        alpha = np.array([0.3, 1.7])
        P = seed_coefficients(TargetSpectrum(values=np.array([3.0, 1.0, -9.0, 2.0, 5.0, -4.0]), n=2, k=3),
                              LeadingDiagonal(alpha_k=alpha))
        assert np.array_equal(P.coeffs[3], np.diag(alpha))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_matches_subset_enumeration_exactly(self, n, k, data):
        # integer roots and power-of-two alpha keep both computations exact
        roots = data.draw(st.lists(st.integers(-20, 20), min_size=n * k, max_size=n * k, unique=True))
        alpha = [2.0 ** data.draw(st.integers(-4, 4)) for _ in range(n)]
        spec = TargetSpectrum(values=np.array(roots, dtype=float), n=n, k=k)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.array(alpha)))
        for r in range(n):
            block = roots[r * k:(r + 1) * k]
            for s in range(k + 1):
                expected = (-1) ** (k - s) * alpha[r] * subset_sum_oracle(block, k - s)
                assert P.coeffs[s][r, r] == float(expected)


class TestBlockAssignment:
    """TargetSpectrum.blocks: row r holds diagonal entry r's targets, in input order."""

    def test_quadratic_on_four(self):
        spec = TargetSpectrum(values=TARGETS, n=4, k=2)
        assert np.array_equal(spec.blocks[0], TARGETS[:2])
        assert np.array_equal(spec.blocks[3], TARGETS[6:])

    def test_linear_identity(self):
        spec = TargetSpectrum(values=np.array([5.0, 1.0, 3.0]), n=3, k=1)
        assert np.array_equal(spec.blocks, [[5.0], [1.0], [3.0]])

    def test_cubic_on_two(self):
        spec = TargetSpectrum(values=np.arange(6, dtype=float), n=2, k=3)
        assert np.array_equal(spec.blocks, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert np.shares_memory(spec.blocks, spec.values)  # a view, not a copy


class TestSeedCoefficients:
    def test_quadratic_reference(self):
        spec = TargetSpectrum(values=TARGETS, n=4, k=2)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(4)))
        assert np.array_equal(P.coeffs[1], np.diag([6.0, 14.0, 22.0, 30.0]))
        assert np.array_equal(P.coeffs[0], np.diag([8.0, 48.0, 120.0, 224.0]))
        assert np.array_equal(P.coeffs[2], np.eye(4))

    def test_linear_case(self):
        lam = np.array([4.0, -1.0, 2.5])
        spec = TargetSpectrum(values=lam, n=3, k=1)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(3)))
        assert np.array_equal(P.coeffs[0], -np.diag(lam))
        assert np.array_equal(P.coeffs[1], np.eye(3))

    @pytest.mark.parametrize("trial", range(5))
    def test_spectrum_round_trip(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        vals = random_targets(rng, n, k)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2, n)))
        decomp = proper_values(P)
        assert np.allclose(decomp.values, np.sort(vals), atol=1e-10)

    def test_leading_coefficient_exact(self):
        spec = TargetSpectrum(values=TARGETS, n=4, k=2)
        alpha = np.array([1.5, 2.0, 0.25, 3.0])
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=alpha))
        assert np.array_equal(P.coeffs[2], np.diag(alpha))

    def test_offdiagonals_exactly_zero(self):
        spec = TargetSpectrum(values=TARGETS, n=4, k=2)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(4)))
        for c in P.coeffs:
            assert np.array_equal(c - np.diag(np.diag(c)), np.zeros((4, 4)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sign_pattern_matches_direct_expansion(self, k):
        rng = np.random.default_rng(k)
        roots = rng.uniform(-8, 8, size=k)
        spec = TargetSpectrum(values=roots, n=1, k=k)
        alpha = float(rng.uniform(0.5, 2))
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.array([alpha])))
        expanded = alpha * np.poly(roots)[::-1]  # ascending coefficients
        got = np.array([P.coeffs[s][0, 0] for s in range(k + 1)])
        assert np.allclose(got, expanded, rtol=1e-12, atol=1e-12)

    def test_root_property(self):
        rng = np.random.default_rng(11)
        n, k = 4, 3
        vals = random_targets(rng, n, k)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(n)))
        for t in range(1, n + 1):
            for q in range((t - 1) * k, t * k):
                lam = vals[q]
                val = sum(P.coeffs[s][t - 1, t - 1] * lam ** s for s in range(k + 1))
                scale = sum(abs(P.coeffs[s][t - 1, t - 1]) * abs(lam) ** s for s in range(k + 1))
                assert abs(val) <= 1e-12 * max(scale, 1.0)


class TestTargetSpectrum:
    def test_duplicate_rejected(self):
        with pytest.raises(InvariantViolation, match="distinct"):
            TargetSpectrum(values=np.array([1.0, 2.0, 2.0, 4.0]), n=2, k=2)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvariantViolation):
            TargetSpectrum(values=np.array([1.0, 2.0, 3.0]), n=2, k=2)


def test_seed_unknowns_layout():
    x = seed_unknowns(TargetSpectrum(values=TARGETS, n=4, k=2), LeadingDiagonal(alpha_k=np.ones(4)))
    assert np.array_equal(x, np.array([8.0, 48, 120, 224, 6, 14, 22, 30]))


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 3), (6, 1), (2, 5)])
def test_seed_unknowns_are_bitwise_the_seed_diagonals(n, k):
    rng = np.random.default_rng(10 * n + k)
    spec = TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k)
    lead = LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n))
    P = seed_coefficients(spec, lead)
    diagonals = np.concatenate([np.diag(c) for c in P.coeffs[:-1]])  # s-major: x[s*n + r]
    assert seed_unknowns(spec, lead).tobytes() == diagonals.tobytes()
    assert P.coeffs[-1].tobytes() == np.diag(lead.alpha_k).tobytes()


def test_seed_unknowns_reject_an_overflowing_seed():
    spec = TargetSpectrum(values=np.array([1e200, 2e200]), n=1, k=2)
    lead = LeadingDiagonal(alpha_k=np.ones(1))
    with np.errstate(over="ignore"), pytest.raises(InvariantViolation, match="not finite"):
        seed_unknowns(spec, lead)
    with np.errstate(over="ignore"), pytest.raises(InvariantViolation, match="not finite"):
        seed_coefficients(spec, lead)
