import numpy as np
import pytest

from structured_iep import (
    DegenerateDenominator,
    Graph,
    LeadingDiagonal,
    MatrixPolynomial,
    PerturbationDirection,
    ProblemSpec,
    SpectralDecomposition,
    TargetSpectrum,
    assemble,
    eigderivative,
    evaluate,
    jacobian_fd,
    jacobian_x,
    linearize,
    proper_values,
    seed_coefficients,
    seed_unknowns,
    seed_vandermonde_check,
    sensitivity,
    spectral_map,
    tau_derivative,
)

from conftest import (
    TARGETS,
    coefficient_scale,
    derivative,
    golden_path4_polynomial,
    random_targets,
    unit_vectors,
)


@pytest.fixture
def quad_seed():
    spec = TargetSpectrum(values=TARGETS, n=4, k=2)
    return spec, seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(4)))


def fd_derivative(P, value_index, s, slot, h=1e-6):
    """Central-difference oracle: perturb one slot symmetrically, re-solve,
    track the proper value at the same ascending position."""
    def perturbed(delta):
        coeffs = [np.array(c, copy=True) for c in P.coeffs]
        if isinstance(slot, int):
            coeffs[s][slot - 1, slot - 1] += delta
        else:
            i, j = slot
            coeffs[s][i - 1, j - 1] += delta
            coeffs[s][j - 1, i - 1] += delta
        return proper_values(MatrixPolynomial(tuple(coeffs))).values[value_index]
    return (perturbed(h) - perturbed(-h)) / (2 * h)


class TestEigderivative:
    def test_diagonal_slot_constant_power(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        # lambda = -2 is the largest value; its vector is e_1
        pair = (decomp.values[-1], unit_vectors(decomp)[-1])
        d = eigderivative(P, pair, PerturbationDirection(s=0, diag=1))
        # scalar oracle: d/dz of (z+2)(z+4) at -2 is 2, so derivative is -1/2
        assert d == pytest.approx(-0.5, abs=1e-10)
        assert d == pytest.approx(fd_derivative(P, 7, 0, 1), rel=1e-6)

    def test_diagonal_slot_linear_power(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        pair = (decomp.values[-1], unit_vectors(decomp)[-1])
        d = eigderivative(P, pair, PerturbationDirection(s=1, diag=1))
        assert d == pytest.approx(1.0, abs=1e-10)
        assert d == pytest.approx(fd_derivative(P, 7, 1, 1), rel=1e-6)

    def test_offdiagonal_slots_vanish_at_seed(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        for q in range(len(decomp)):
            pair = (decomp.values[q], unit_vectors(decomp)[q])
            for s in range(2):
                for edge in [(1, 2), (1, 3), (2, 4), (3, 4)]:
                    d = eigderivative(P, pair, PerturbationDirection(s=s, edge=edge))
                    assert abs(d) <= 1e-10

    def test_other_diagonal_vanishes_at_seed(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        pair = (decomp.values[-1], unit_vectors(decomp)[-1])  # block 1
        d = eigderivative(P, pair, PerturbationDirection(s=0, diag=2))
        assert abs(d) <= 1e-10

    def test_leading_power_rejected(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        pair = (decomp.values[0], unit_vectors(decomp)[0])
        with pytest.raises(ValueError):
            eigderivative(P, pair, PerturbationDirection(s=2, diag=1))

    def test_degenerate_denominator(self):
        # P'(0) = diag(4, -4): v = (1,1)/sqrt(2) annihilates the quotient
        P = MatrixPolynomial((np.eye(2), np.diag([4.0, -4.0]), np.eye(2)))
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(DegenerateDenominator):
            eigderivative(P, (0.0, v), PerturbationDirection(s=0, diag=1))

    def test_direction_requires_exactly_one_slot(self):
        with pytest.raises(ValueError):
            PerturbationDirection(s=0)
        with pytest.raises(ValueError):
            PerturbationDirection(s=0, diag=1, edge=(1, 2))


class TestJacobianX:
    def test_vandermonde_structure_at_seed(self, quad_seed):
        spec, P = quad_seed
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        check = seed_vandermonde_check(spec, decomp, J)
        assert check["max_entry_error"] <= 1e-12
        assert check["max_offblock"] <= 1e-12
        assert np.isfinite(check["condition"])

    def test_vandermonde_check_matches_per_entry_reference(self):
        rng = np.random.default_rng(8)
        for n, k in ((1, 1), (3, 2), (4, 3), (5, 1)):
            spec = TargetSpectrum(values=rng.uniform(-10, 10, n * k), n=n, k=k)
            P = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)))
            decomp = proper_values(P)
            J = jacobian_x(decomp)
            check = seed_vandermonde_check(spec, decomp, J)
            # reference: one entry at a time, target q (input order) on entry ceil(q/k)
            rows = np.empty(n * k, dtype=int)
            rows[np.argsort(spec.values, kind="stable")] = np.arange(n * k)
            Pd = derivative(P)
            scaled = np.empty((n * k, n * k))
            expected = np.zeros((n * k, n * k))
            for q in range(n * k):
                r, lam = q // k, decomp.values[rows[q]]
                den = evaluate(Pd, lam)[r, r]
                for s in range(k):
                    expected[q, r * k + s] = lam ** s
                    for rp in range(n):
                        scaled[q, rp * k + s] = -J[rows[q], s * n + rp] * den
            offblock = max((abs(scaled[q, c]) for q in range(n * k) for c in range(n * k)
                            if c // k != q // k), default=0.0)
            assert np.array_equal(check["scaled"], scaled)
            assert check["max_offblock"] == offblock
            # lam ** s rounds differently as a scalar and as an array power
            assert np.allclose(check["expected"], expected, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_linear_seed_is_scaled_negative_identity(self):
        lam = np.array([2.0, -3.0, 7.0])
        alpha = np.array([0.5, 2.0, 4.0])
        spec = TargetSpectrum(values=lam, n=3, k=1)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=alpha))
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        # ascending values correspond to entries in sorted-target order
        order = np.argsort(lam)
        expected = np.zeros((3, 3))
        for row, t in enumerate(order):
            expected[row, t] = -1.0 / alpha[t]
        assert np.allclose(J, expected, atol=1e-12)

    @pytest.mark.parametrize("trial", range(4))
    def test_matches_finite_differences_off_seed(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        spec = TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k)
        seed = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2, n)))
        coeffs = [np.array(c) for c in seed.coeffs]
        for s in range(k):
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        val = rng.uniform(-0.3, 0.3)
                        coeffs[s][i, j] = coeffs[s][j, i] = val
        P = MatrixPolynomial(tuple(coeffs))
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        # h ~ sqrt(eigensolver accuracy); the absolute floor covers entries
        # that are analytically ~0, where FD returns pure eigensolver noise
        Jfd = jacobian_fd(P, h=1e-4)
        tol = 1e-5 * np.maximum(np.abs(J), np.abs(Jfd)) + 1e-7
        assert np.all(np.abs(J - Jfd) <= tol)

    def test_matches_finite_differences_for_a_coupled_pencil(self):
        # degree 1: the values and vectors come from eigh of the symmetric pencil
        rng = np.random.default_rng(7)
        n = 5
        B = rng.uniform(-0.3, 0.3, (n, n))
        A0 = (B + B.T) / 2 + np.diag(rng.uniform(-10.0, 10.0, n))
        P = MatrixPolynomial((A0, np.diag(rng.uniform(0.5, 2.0, n))))
        J = jacobian_x(proper_values(P))
        Jfd = jacobian_fd(P, h=1e-4)
        tol = 1e-5 * np.maximum(np.abs(J), np.abs(Jfd)) + 1e-7
        assert np.all(np.abs(J - Jfd) <= tol)


def reference_jacobian(P, decomp):
    """Row q, column s*n + r: -lambda_q^s v_r^2 / (v^T P'(lambda_q) v), one
    proper pair at a time, P' evaluated from the polynomial."""
    n, k = P.n, P.degree
    dP = derivative(P)
    J = np.empty((n * k, n * k))
    for q, (lam, v) in enumerate(zip(decomp.values, unit_vectors(decomp))):
        den = v @ evaluate(dP, lam) @ v
        for s in range(k):
            J[q, s * n:(s + 1) * n] = -lam ** s * v ** 2 / den
    return J


def mixed_sign_spec(k, seed):
    """n = 4, every coefficient on the complete graph, off-diagonals of
    alternating sign."""
    rng = np.random.default_rng(seed)
    complete = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    return ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(rng, 4, k), n=4, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, 4)),
        graphs=(complete,) * k,
        offdiag_values=tuple(np.resize([1.0, -1.0], 6) * rng.uniform(0.02, 0.15, 6) for _ in range(k)),
    )


class TestJacobianFromDecomposition:
    """jacobian_x reads P' back from the decomposition's companion matrix."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 1 / 3, 1.0])
    def test_matches_the_per_vector_reference(self, k, tau):
        spec = mixed_sign_spec(k, seed=20 + k)
        x = seed_unknowns(spec.spectrum, spec.lead) + np.random.default_rng(k).uniform(-0.05, 0.05, 4 * k)
        P = assemble(x, spec, tau)
        for decomp in (spectral_map(x, spec, tau), proper_values(P)):
            ref = reference_jacobian(P, decomp)
            assert np.max(np.abs(jacobian_x(decomp) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_denominators_read_p_prime_back_from_the_companion(self):
        spec = mixed_sign_spec(3, seed=5)
        x = seed_unknowns(spec.spectrum, spec.lead)
        P = assemble(x, spec, 0.5)
        for decomp in (spectral_map(x, spec, 0.5), proper_values(P)):
            lam, V = decomp.values, decomp.companion_rows
            den = sensitivity._denominators(decomp.lead, decomp.companion, lam, V)
            want = np.einsum("qi,qij,qj->q", V, evaluate(derivative(P), lam), V)
            assert np.max(np.abs(den - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("delta", [0.0, 1e-11, 7e-11, 7.1e-11, 1e-10, 1e-3])
    def test_degenerate_denominator_at_the_same_threshold(self, delta):
        # P'(0) = diag(4, -4) and v = (cos t, sin t) with t = pi/4 + delta:
        # v^T P'(0) v = 4 cos 2t, against DENOM_TOL times ||P'||_F = 4 sqrt(2);
        # the decision does not depend on the row's scale or sign
        P = MatrixPolynomial((np.eye(2), np.diag([4.0, -4.0]), np.eye(2)))
        t = np.pi / 4 + delta
        rows = np.array([[np.cos(t), np.sin(t)], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        values = np.array([0.0, 1.0, 3.0, 4.0])
        dP = derivative(P)
        for row_scale in (1.0, 1e-3, -0.5, -1e3):
            decomp = SpectralDecomposition(values=values, companion_rows=row_scale * rows, companion=linearize(P),
                                           lead=np.ones(2))
            degenerate = any(abs(v @ evaluate(dP, lam) @ v) < sensitivity.DENOM_TOL * coefficient_scale(dP, lam)
                             for lam, v in zip(values, unit_vectors(decomp)))
            assert degenerate == (delta < 7.07e-11)
            if degenerate:
                with pytest.raises(DegenerateDenominator, match="row 0"):
                    jacobian_x(decomp)
            else:
                assert np.all(np.isfinite(jacobian_x(decomp)))


class TestRawRows:
    """jacobian_x and tau_derivative read the eigenvector rows as the
    eigensolver returns them: any nonzero scale and sign per row."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rescaled_rows_leave_the_sensitivities_unchanged(self, k):
        spec = mixed_sign_spec(k, seed=20 + k)
        x = seed_unknowns(spec.spectrum, spec.lead) + np.random.default_rng(k).uniform(-0.05, 0.05, 4 * k)
        decomp = spectral_map(x, spec)
        rng = np.random.default_rng(40 + k)
        factors = rng.choice([-1.0, 1.0], len(decomp)) * 10.0 ** rng.uniform(-3.0, 3.0, len(decomp))
        rescaled = SpectralDecomposition(values=decomp.values,
                                         companion_rows=decomp.companion_rows * factors[:, None],
                                         companion=decomp.companion, lead=decomp.lead)
        for f in (jacobian_x, lambda d: tau_derivative(d, spec.ramp)):
            want = f(decomp)
            assert np.max(np.abs(f(rescaled) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_zero_row_raises_degenerate_denominator(self, path4_spec):
        P = golden_path4_polynomial()
        decomp = proper_values(P)
        rows = decomp.companion_rows.copy()
        rows[3] = 0.0
        zeroed = SpectralDecomposition(values=decomp.values, companion_rows=rows,
                                       companion=decomp.companion, lead=decomp.lead)
        with pytest.raises(DegenerateDenominator, match="row 3"):
            jacobian_x(zeroed)
        with pytest.raises(DegenerateDenominator, match="row 3"):
            tau_derivative(zeroed, path4_spec.ramp)
        with pytest.raises(DegenerateDenominator):
            eigderivative(P, (decomp.values[3], rows[3]), PerturbationDirection(s=0, diag=1))


class TestTauDerivative:
    def test_matches_central_difference_in_tau(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        P = assemble(x, path4_spec, tau=1.0)
        d = tau_derivative(proper_values(P), path4_spec.ramp)
        h = 1e-5
        fd = (proper_values(assemble(x, path4_spec, tau=1.0 + h)).values
              - proper_values(assemble(x, path4_spec, tau=1.0 - h)).values) / (2 * h)
        assert np.all(np.abs(d) > 1e-3)  # a non-trivial comparison
        assert np.all(np.abs(d - fd) <= 1e-6 * np.abs(fd))

    def test_exactly_zero_at_diagonal_seed(self, path4_spec):
        P = path4_spec.seed()
        d = tau_derivative(proper_values(P), path4_spec.ramp)
        assert np.array_equal(d, np.zeros(8))


class TestJacobianFD:
    def test_richardson_consistency_at_seed(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        h = 1e-4
        e1 = np.max(np.abs(jacobian_fd(P, h=h) - J))
        e2 = np.max(np.abs(jacobian_fd(P, h=h / 2) - J))
        # central differences: halving h divides the truncation error by ~4
        assert e2 <= e1 / 2.5 + 1e-11

    def test_structurally_zero_columns_at_seed(self, quad_seed):
        spec, P = quad_seed
        Jfd = jacobian_fd(P, h=1e-6)
        # rows are ascending values: q-th smallest; row block r gets nonzeros
        # only in columns for diagonal entry r
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        zero_mask = np.abs(J) < 1e-13
        assert np.max(np.abs(Jfd[zero_mask])) <= 1e-7

    def test_scalar_linear_case(self):
        alpha = 4.0
        spec = TargetSpectrum(values=np.array([2.0]), n=1, k=1)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.array([alpha])))
        Jfd = jacobian_fd(P, h=1e-6)
        assert Jfd[0, 0] == pytest.approx(-1.0 / alpha, rel=1e-8)

    def test_rejects_nonpositive_step(self, quad_seed):
        _, P = quad_seed
        with pytest.raises(ValueError):
            jacobian_fd(P, h=0.0)


def test_offdiagonal_factor_two_against_symmetric_fd():
    # off the seed the off-diagonal derivative is nonzero; the analytic value
    # must match the symmetric two-entry perturbation, factor 2 included
    rng = np.random.default_rng(42)
    spec = TargetSpectrum(values=random_targets(rng, 3, 2), n=3, k=2)
    seed = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(3)))
    coeffs = [np.array(c) for c in seed.coeffs]
    coeffs[0][0, 1] = coeffs[0][1, 0] = 0.2
    coeffs[1][1, 2] = coeffs[1][2, 1] = -0.15
    P = MatrixPolynomial(tuple(coeffs))
    decomp = proper_values(P)
    for q in [0, 2, 5]:
        pair = (decomp.values[q], unit_vectors(decomp)[q])
        for s, edge in [(0, (1, 2)), (1, (2, 3)), (0, (1, 3))]:
            d = eigderivative(P, pair, PerturbationDirection(s=s, edge=edge))
            fd = fd_derivative(P, q, s, edge, h=1e-6)
            assert d == pytest.approx(fd, rel=1e-5, abs=1e-8)
