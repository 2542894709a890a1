import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structured_iep import (
    DegenerateDenominator,
    Graph,
    LeadingDiagonal,
    MatrixPolynomial,
    ProblemSpec,
    SpectralDecomposition,
    TargetSpectrum,
    assemble,
    evaluate,
    jacobian_x,
    proper_values,
    seed_coefficients,
    seed_unknowns,
    seed_vandermonde_check,
    sensitivity,
    solver,
    spectral_map,
)

from conftest import (
    TARGETS,
    coefficient_scale,
    count_calls,
    derivative,
    fd_derivative,
    golden_path4_polynomial,
    jacobian_fd,
    one_slot,
    random_targets,
    unit_vectors,
)


@pytest.fixture
def quad_seed():
    spec = TargetSpectrum(values=TARGETS, n=4, k=2)
    return spec, seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(4)))


def off_seed_polynomial(k):
    """A diagonal seed of three random targets per entry at degree k, with
    every off-diagonal slot of every A_s (s < k) moved off zero: no slot
    derivative of it vanishes by structure."""
    rng = np.random.default_rng(50 + k)
    spec = TargetSpectrum(values=random_targets(rng, 3, k), n=3, k=k)
    coeffs = [np.array(c) for c in seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, 3))).coeffs]
    for c in coeffs[:-1]:
        upper = np.triu(rng.uniform(-0.2, 0.2, (3, 3)), 1)
        c += upper + upper.T
    return MatrixPolynomial(tuple(coeffs))


SLOTS = (1, 2, 3, (1, 2), (1, 3), (2, 3))


class TestSlotDerivative:
    """jacobian_x's direction column for one pair and a one-slot direction
    row (conftest.one_slot): the derivative along that slot."""

    @pytest.mark.parametrize("k, s, slot", [
        pytest.param(k, s, slot, id=f"k{k}-A{s}-" + ("e{}{}".format(*slot) if isinstance(slot, tuple) else f"d{slot}"))
        for k in (1, 2, 3) for s in range(k) for slot in SLOTS
    ])
    def test_every_slot_against_fd(self, k, s, slot):
        P = off_seed_polynomial(k)
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        h = 1e-4
        for q in range(len(decomp)):
            d = jacobian_x(*one_slot(decomp, q, s, slot))[0, -1]
            # Richardson-extrapolated central differences, as acceptance 6;
            # the absolute floor is the differences' noise at degree 3
            fd = (4 * fd_derivative(P, q, s, slot, h / 2) - fd_derivative(P, q, s, slot, h)) / 3
            assert d == pytest.approx(fd, rel=1e-5, abs=1e-8)
            if not isinstance(slot, tuple):  # a diagonal slot: jacobian_x's own column s*n + slot - 1
                assert d == pytest.approx(J[q, 3 * s + slot - 1], rel=1e-12, abs=1e-15)

    def test_diagonal_slot_constant_power(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        # lambda = -2 is the largest value; its vector is e_1
        d = jacobian_x(*one_slot(decomp, 7, 0, 1))[0, -1]
        # scalar oracle: d/dz of (z+2)(z+4) at -2 is 2, so derivative is -1/2
        assert d == pytest.approx(-0.5, abs=1e-10)
        assert d == pytest.approx(fd_derivative(P, 7, 0, 1), rel=1e-6)

    def test_diagonal_slot_linear_power(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        d = jacobian_x(*one_slot(decomp, 7, 1, 1))[0, -1]
        assert d == pytest.approx(1.0, abs=1e-10)
        assert d == pytest.approx(fd_derivative(P, 7, 1, 1), rel=1e-6)

    def test_offdiagonal_slots_vanish_at_seed(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        for q in range(len(decomp)):
            for s in range(2):
                for edge in [(1, 2), (1, 3), (2, 4), (3, 4)]:
                    d = jacobian_x(*one_slot(decomp, q, s, edge))[0, -1]
                    assert abs(d) <= 1e-10

    def test_other_diagonal_vanishes_at_seed(self, quad_seed):
        _, P = quad_seed
        decomp = proper_values(P)
        d = jacobian_x(*one_slot(decomp, 7, 0, 2))[0, -1]  # the pair of block 1
        assert abs(d) <= 1e-10

    def test_degenerate_denominator(self):
        # P'(0) = diag(4, -4): v = (1,1)/sqrt(2) annihilates the quotient
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        decomp = SpectralDecomposition(np.zeros(1), v[None, :], np.diag([4.0, -4.0]), np.ones(2))
        with pytest.raises(DegenerateDenominator):
            jacobian_x(*one_slot(decomp, 0, 0, 1))


class TestJacobianX:
    def test_vandermonde_structure_at_seed(self, quad_seed):
        spec, P = quad_seed
        decomp = proper_values(P)
        J = jacobian_x(decomp)
        check = seed_vandermonde_check(spec, decomp, J)
        assert check["passed"] is True
        assert np.isfinite(check["condition"])
        J[0, 1] += 1e-6  # leakage off the Vandermonde blocks
        assert seed_vandermonde_check(spec, decomp, J)["passed"] is False

    def test_vandermonde_check_matches_per_entry_reference(self):
        rng = np.random.default_rng(8)
        for n, k in ((1, 1), (3, 2), (4, 3), (5, 1)):
            spec = TargetSpectrum(values=rng.uniform(-10, 10, n * k), n=n, k=k)
            P = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)))
            decomp = proper_values(P)
            J = jacobian_x(decomp)
            J[rng.integers(n * k), rng.integers(n * k)] += 1e-7  # leakage, on or off the blocks
            check = seed_vandermonde_check(spec, decomp, J)
            # reference: one entry at a time, target q (input order) on entry q // k
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
            entry_error = np.max(np.abs(scaled - expected) / np.maximum(1.0, np.abs(expected)))
            assert check["max_offblock"] == offblock
            # lam ** s rounds differently as a scalar and as an array power
            assert abs(check["max_entry_error"] - entry_error) <= 4 * np.finfo(float).eps

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
    """jacobian_x reads P' from the decomposition's coefficients [A_1 ...
    A_{k-1}] and leading diagonal."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 1 / 3, 1.0])
    def test_matches_the_per_vector_reference(self, k, tau):
        spec = mixed_sign_spec(k, seed=20 + k)
        x = seed_unknowns(spec.spectrum, spec.lead) + np.random.default_rng(k).uniform(-0.05, 0.05, 4 * k)
        P = assemble(x, spec, tau)
        for decomp in (spectral_map(x, spec, tau), proper_values(P)):
            ref = reference_jacobian(P, decomp)
            assert np.max(np.abs(jacobian_x(decomp) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_denominators_read_p_prime_from_the_coefficients(self):
        spec = mixed_sign_spec(3, seed=5)
        x = seed_unknowns(spec.spectrum, spec.lead)
        P = assemble(x, spec, 0.5)
        for decomp in (spectral_map(x, spec, 0.5), proper_values(P)):
            lam, V = decomp.values, decomp.companion_rows
            den = sensitivity._denominators(decomp, V * V)
            want = np.einsum("qi,qij,qj->q", V, evaluate(derivative(P), lam), V)
            assert np.max(np.abs(den - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("delta", [0.0, 1e-11, 7e-11, 7.1e-11, 1e-10, 1e-3])
    @pytest.mark.parametrize("k, crossing", [(2, 0), (3, 2)])
    def test_degenerate_denominator_at_the_same_threshold(self, k, crossing, delta):
        # P'(0) = A_1 = diag(4, -4) and row ``crossing``, at lambda = 0, is
        # v = (cos t, sin t) with t = pi/4 + delta: v^T P'(0) v = 4 cos 2t,
        # against DENOM_TOL times ||P'(0)||_F = 4 sqrt(2).  Every other row
        # is e_1, far from its threshold, at a value away from 0; at k = 3
        # the crossing row is not row 0 and not the largest |lambda|.  The
        # decision does not depend on the row's scale or sign
        P = MatrixPolynomial((np.eye(2), np.diag([4.0, -4.0])) + (np.eye(2),) * (k - 1))
        values = np.array({2: [0.0, 1.0, 3.0, 4.0], 3: [-2.0, -1.0, 0.0, 1.0, 3.0, 4.0]}[k])
        t = np.pi / 4 + delta
        rows = np.tile([1.0, 0.0], (2 * k, 1))
        rows[crossing] = np.cos(t), np.sin(t)
        dP = derivative(P)
        for row_scale in (1.0, 1e-3, -0.5, -1e3):
            decomp = SpectralDecomposition(values=values, companion_rows=row_scale * rows,
                                           upper=np.hstack(P.coeffs[1:k]), lead=np.ones(2))
            degenerate = [abs(v @ evaluate(dP, lam) @ v) < sensitivity.DENOM_TOL * coefficient_scale(dP, lam)
                          for lam, v in zip(values, unit_vectors(decomp))]
            assert degenerate == [q == crossing and delta < 7.07e-11 for q in range(2 * k)]
            if any(degenerate):
                with pytest.raises(DegenerateDenominator, match=f"row {crossing}:"):
                    jacobian_x(decomp)
            else:
                assert np.all(np.isfinite(jacobian_x(decomp)))

    @pytest.mark.parametrize("ratio", [0.5, 0.999, 1.001, 2.0, 1e7])
    def test_degenerate_denominator_at_the_same_threshold_at_degree_one(self, ratio):
        # P'(z) = diag(1, mu) at every z, and row 1 is e_2: v^T P' v = mu,
        # against DENOM_TOL times ||P'||_F = DENOM_TOL (1 + mu^2)^(1/2)
        mu = ratio * sensitivity.DENOM_TOL
        dP = MatrixPolynomial((np.diag([1.0, mu]),))
        values = np.array([-3.0, 2.0])
        for row_scale in (1.0, 1e-3, -0.5, -1e3):
            decomp = SpectralDecomposition(values=values, companion_rows=row_scale * np.eye(2),
                                           upper=np.zeros((2, 0)), lead=np.array([1.0, mu]))
            degenerate = [abs(v @ evaluate(dP, lam) @ v) < sensitivity.DENOM_TOL * coefficient_scale(dP, lam)
                          for lam, v in zip(values, unit_vectors(decomp))]
            assert degenerate == [False, ratio < 1.0]
            if any(degenerate):
                with pytest.raises(DegenerateDenominator, match="row 1:"):
                    jacobian_x(decomp)
            else:
                assert np.all(np.isfinite(jacobian_x(decomp)))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), k=st.integers(1, 3))
    def test_the_guard_raises_exactly_when_the_per_row_rule_does(self, seed, n, k):
        decomp = random_guard_case(np.random.default_rng(seed), n, k)
        sq = decomp.companion_rows ** 2
        den, row = per_row_rule(decomp, sq)
        if row is None:
            assert sensitivity._denominators(decomp, sq).tobytes() == den.tobytes()
        else:
            with pytest.raises(DegenerateDenominator, match=f"row {row}:"):
                sensitivity._denominators(decomp, sq)


def per_row_rule(decomp, sq):
    """The denominators v_q^T P'(lambda_q) v_q and the guard's per-row rule,
    written out independently of sensitivity._denominators: (den, the
    first row whose |den| is at most DENOM_TOL ||v_q||^2 times the scale
    sum_s s ||A_s||_F |lambda_q|^(s-1), or None)."""
    lead, lams, upper, V = decomp.lead, decomp.values, decomp.upper, decomp.companion_rows
    n = len(lead)
    k = upper.shape[1] // n + 1
    den = k * (sq @ lead)
    scale = k * math.sqrt(lead @ lead)
    if k > 1:
        forms = ((V @ upper).reshape(len(V), -1, n) * V[:, None, :]).sum(axis=2)
        norms = np.sqrt((upper * upper).reshape(n, k - 1, n).sum(axis=(0, 2)))
        for s in range(k - 1, 0, -1):
            den = den * lams + s * forms[:, s - 1]
            scale = scale * np.abs(lams) + s * norms[s - 1]
    small = np.abs(den) <= sensitivity.DENOM_TOL * scale * sq.sum(axis=1)
    return den, (int(small.argmax()) if small.any() else None)


def random_guard_case(rng, n, k):
    """A decomposition of random data for the denominator guard: leading
    entries from 1e-12 to 10, symmetric A_s of magnitudes 1e-3 to 1e3,
    ascending values of both signs and some exactly 0, and rows that are
    random, zero, or built to sit near their threshold (from 0.1 to 10
    times it, of either sign), each scaled by +-1e-3 to 1e3."""
    lead = 10.0 ** rng.uniform(-12.0, 1.0, n)
    blocks = [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(k - 1)]
    blocks = [b + b.T for b in blocks]
    m = n * k
    values = np.sort(np.where(rng.random(m) < 0.2, 0.0, rng.standard_normal(m) * 10.0 ** rng.uniform(-2.0, 2.0, m)))
    rows = np.zeros((m, n))
    for q, lam in enumerate(values):
        kind = rng.choice(("random", "zero", "near"), p=(0.5, 0.05, 0.45))
        if kind == "zero":
            continue
        dP = k * np.diag(lead) * lam ** (k - 1) + sum(s * blocks[s - 1] * lam ** (s - 1) for s in range(1, k))
        w, U = np.linalg.eigh(dP)
        v = rng.standard_normal(n)
        if kind == "near" and w[0] < 0.0 < w[-1]:
            # v = cos t u_max + sin t u_min, a unit vector with v^T P' v = target
            scale = (k * np.linalg.norm(lead) * abs(lam) ** (k - 1)
                     + sum(s * np.linalg.norm(blocks[s - 1]) * abs(lam) ** (s - 1) for s in range(1, k)))
            target = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0) * sensitivity.DENOM_TOL * scale
            c2 = min(max((target - w[0]) / (w[-1] - w[0]), 0.0), 1.0)
            v = math.sqrt(c2) * U[:, -1] + math.sqrt(1.0 - c2) * U[:, 0]
        elif kind == "near":  # P' definite: the direction of its smallest |eigenvalue|
            v = U[:, np.argmin(np.abs(w))]
        rows[q] = v * rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
    upper = np.hstack(blocks) if k > 1 else np.zeros((n, 0))
    return SpectralDecomposition(values=values, companion_rows=rows, upper=upper, lead=lead)


class TestRawRows:
    """jacobian_x and its direction column read the eigenvector rows as the
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
                                         upper=decomp.upper, lead=decomp.lead)
        for f in (jacobian_x, lambda d: jacobian_x(d, spec.ramp_row)[:, -1]):
            want = f(decomp)
            assert np.max(np.abs(f(rescaled) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_zero_row_raises_degenerate_denominator(self, path4_spec):
        decomp = proper_values(golden_path4_polynomial())
        rows = decomp.companion_rows.copy()
        rows[3] = 0.0
        zeroed = SpectralDecomposition(values=decomp.values, companion_rows=rows,
                                       upper=decomp.upper, lead=decomp.lead)
        with pytest.raises(DegenerateDenominator, match="row 3"):
            jacobian_x(zeroed)
        with pytest.raises(DegenerateDenominator, match="row 3"):
            jacobian_x(zeroed, path4_spec.ramp_row)


class TestOneDenominatorsPerCall:
    """Each jacobian_x call computes the denominators v^T P'(lambda) v once,
    for the diagonal columns and the direction column alike; nothing is
    cached on the decomposition."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_direction_column_shares_the_call(self, k, monkeypatch):
        spec = mixed_sign_spec(k, seed=20 + k)
        x = seed_unknowns(spec.spectrum, spec.lead) + np.random.default_rng(k).uniform(-0.05, 0.05, 4 * k)
        decomp = spectral_map(x, spec, 0.5)
        J = jacobian_x(decomp)
        calls = count_calls(monkeypatch, sensitivity, "_denominators")
        A = jacobian_x(decomp, spec.ramp_row)
        assert calls == {"_denominators": 1}
        assert A.shape == (4 * k, 4 * k + 1)
        assert A[:, :-1].tobytes() == J.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_tangent_computes_them_once(self, k, monkeypatch):
        spec = mixed_sign_spec(k, seed=20 + k)
        x = seed_unknowns(spec.spectrum, spec.lead) + np.random.default_rng(k).uniform(-0.05, 0.05, 4 * k)
        decomp = spectral_map(x, spec, 0.5)
        calls = count_calls(monkeypatch, sensitivity, "_denominators")
        xdot = solver._tangent(spec, decomp)
        assert calls == {"_denominators": 1}
        A = jacobian_x(decomp, spec.ramp_row)
        assert np.abs(A[:, :-1] @ xdot + A[:, -1]).max() <= 1e-10 * np.abs(A[:, -1]).max()
        assert np.abs(xdot).max() > 0.0

    def test_a_zero_row_raises_from_every_call(self, path4_spec, monkeypatch):
        decomp = proper_values(golden_path4_polynomial())
        rows = decomp.companion_rows.copy()
        rows[3] = 0.0
        zeroed = SpectralDecomposition(decomp.values, rows, decomp.upper, decomp.lead)
        calls = count_calls(monkeypatch, sensitivity, "_denominators")
        for f in (jacobian_x, lambda d: jacobian_x(d, path4_spec.ramp_row), jacobian_x):
            with pytest.raises(DegenerateDenominator, match="row 3"):
                f(zeroed)
        assert calls == {"_denominators": 3}


class TestDirectionColumn:
    """The last column of jacobian_x(decomp, spec.ramp_row): dlambda/dtau."""

    def test_matches_central_difference_in_tau(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        P = assemble(x, path4_spec, tau=1.0)
        d = jacobian_x(proper_values(P), path4_spec.ramp_row)[:, -1]
        h = 1e-5
        fd = (proper_values(assemble(x, path4_spec, tau=1.0 + h)).values
              - proper_values(assemble(x, path4_spec, tau=1.0 - h)).values) / (2 * h)
        assert np.all(np.abs(d) > 1e-3)  # a non-trivial comparison
        assert np.all(np.abs(d - fd) <= 1e-6 * np.abs(fd))

    def test_exactly_zero_at_diagonal_seed(self, path4_spec):
        P = path4_spec.seed()
        d = jacobian_x(proper_values(P), path4_spec.ramp_row)[:, -1]
        assert np.array_equal(d, np.zeros(8))


class TestJacobianFD:
    """The central-difference reference conftest.jacobian_fd against
    jacobian_x."""

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

    @pytest.mark.parametrize("h", [np.nan, np.inf, True, "1e-6"], ids=["nan", "inf", "bool", "str"])
    def test_rejects_a_non_finite_step(self, quad_seed, h):
        _, P = quad_seed
        with pytest.raises(ValueError, match="step must be (positive and finite|a real number)"):
            jacobian_fd(P, h=h)


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
        for s, edge in [(0, (1, 2)), (1, (2, 3)), (0, (1, 3))]:
            d = jacobian_x(*one_slot(decomp, q, s, edge))[0, -1]
            fd = fd_derivative(P, q, s, edge, h=1e-6)
            assert d == pytest.approx(fd, rel=1e-5, abs=1e-8)
