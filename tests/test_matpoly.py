import numpy as np
import pytest

from structured_iep import (
    Graph,
    InvariantViolation,
    LeadingCoefficientError,
    LeadingDiagonal,
    MatrixPolynomial,
    NearDegenerate,
    NonRealSpectrum,
    ProblemSpec,
    TargetSpectrum,
    assemble,
    continuation_solve,
    evaluate,
    jacobian_x,
    linearize,
    proper_values,
    seed_coefficients,
    seed_unknowns,
)

from conftest import (
    TARGETS,
    coefficient_scale,
    derivative,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    random_targets,
    unit_vectors,
)


@pytest.fixture
def quad_seed():
    """Diagonal quadratic seed for targets (-2,-4,...,-16): entry (t,t) is
    the monic quadratic with the t-th target pair as roots."""
    spec = TargetSpectrum(values=TARGETS, n=4, k=2)
    return seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(4)))


class TestEvaluate:
    def test_quad_seed_at_minus_two(self, quad_seed):
        A = evaluate(quad_seed, -2.0)
        # scalar oracles: (z+2)(z+4) and (z+6)(z+8) at z=-2
        assert A[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert A[1, 1] == pytest.approx((-2 + 6) * (-2 + 8))
        assert A[1, 1] == pytest.approx(24.0)

    def test_at_zero_gives_constant_coefficient(self, quad_seed):
        assert np.array_equal(evaluate(quad_seed, 0.0), quad_seed.coeffs[0])

    def test_identity_coefficients(self):
        P = MatrixPolynomial((np.eye(3), np.eye(3), np.eye(3)))
        assert np.allclose(evaluate(P, 1.0), 3 * np.eye(3))

    def test_array_of_points_stacks_scalar_evaluations(self, quad_seed):
        z = np.array([-3.0, 0.0, 1.7, 12.5])
        A = evaluate(quad_seed, z)
        assert A.shape == (4, 4, 4)
        for Aq, zq in zip(A, z):
            assert np.array_equal(Aq, evaluate(quad_seed, zq))

    def test_degree_zero_ignores_point(self):
        P = MatrixPolynomial((np.diag([1.0, 2.0]),))
        assert np.array_equal(evaluate(P, 5.0), np.diag([1.0, 2.0]))
        assert np.array_equal(evaluate(P, np.array([5.0, -1.0])), np.stack([np.diag([1.0, 2.0])] * 2))


class TestDerivative:
    def test_quad_seed(self, quad_seed):
        Pd = derivative(quad_seed)
        assert Pd.degree == 1
        assert np.array_equal(Pd.coeffs[0], np.diag([6.0, 14.0, 22.0, 30.0]))
        assert np.array_equal(Pd.coeffs[1], 2 * np.eye(4))

    def test_constant_is_zero(self):
        P = MatrixPolynomial((np.diag([1.0, 2.0]),))
        Pd = derivative(P)
        assert Pd.degree == 0
        assert np.array_equal(Pd.coeffs[0], np.zeros((2, 2)))

    @pytest.mark.parametrize("z", [-3.0, 0.0, 1.7])
    def test_central_difference_cross_check(self, quad_seed, z):
        h = 1e-6
        fd = (evaluate(quad_seed, z + h) - evaluate(quad_seed, z - h)) / (2 * h)
        assert np.allclose(fd, evaluate(derivative(quad_seed), z), atol=1e-8)


class TestLinearize:
    def test_degree_one_diagonal(self):
        lam = np.array([3.0, -1.0, 5.0])
        P = MatrixPolynomial((-np.diag(lam), np.eye(3)))
        assert np.array_equal(linearize(P), np.diag(lam))

    def test_quad_seed_spectrum(self, quad_seed):
        C = linearize(quad_seed)
        assert C.shape == (8, 8)
        w = np.sort(np.linalg.eigvals(C).real)
        assert np.allclose(w, np.sort(TARGETS), atol=1e-10)

    def test_random_diagonal_seed_vs_scalar_roots(self):
        rng = np.random.default_rng(7)
        n, k = 3, 3
        vals = random_targets(rng, n, k)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        seed = seed_coefficients(spec, LeadingDiagonal(alpha_k=rng.uniform(0.5, 2, n)))
        w = np.sort(np.linalg.eigvals(linearize(seed)).real)
        # scalar oracle: roots of each diagonal entry
        roots = []
        for t in range(n):
            coeffs_desc = [seed.coeffs[s][t, t] for s in range(k, -1, -1)]
            roots.extend(np.roots(coeffs_desc).real)
        assert np.allclose(w, np.sort(roots), atol=1e-10)

    def test_nondiagonal_leading_rejected(self):
        Ak = np.array([[1.0, 0.1], [0.1, 1.0]])
        P = MatrixPolynomial((np.eye(2), Ak))
        with pytest.raises(LeadingCoefficientError):
            linearize(P)

    def test_nonpositive_leading_rejected(self):
        P = MatrixPolynomial((np.eye(2), np.diag([1.0, -1.0])))
        with pytest.raises(LeadingCoefficientError):
            linearize(P)


class TestProperValues:
    def test_quad_seed_values_and_vectors(self, quad_seed):
        decomp = proper_values(quad_seed)
        assert np.allclose(decomp.values, np.sort(TARGETS), atol=1e-10)
        # vectors are standard basis vectors: target pair r maps to e_r
        expected_r = [3, 3, 2, 2, 1, 1, 0, 0]  # ascending values
        for q, r in enumerate(expected_r):
            e = np.zeros(4)
            e[r] = 1.0
            assert np.allclose(unit_vectors(decomp)[q], e, atol=1e-10)

    def test_linear_diagonal(self):
        P = MatrixPolynomial((-np.diag([3.0, 1.0]), np.eye(2)))
        decomp = proper_values(P)
        assert np.allclose(decomp.values, [1.0, 3.0], atol=1e-12)

    def test_residual_invariant(self, quad_seed):
        decomp = proper_values(quad_seed)
        for lam, v in zip(decomp.values, unit_vectors(decomp)):
            res = np.linalg.norm(evaluate(quad_seed, lam) @ v)
            assert res <= 1e-8 * coefficient_scale(quad_seed, lam)

    def test_count(self, quad_seed):
        assert len(proper_values(quad_seed)) == 8

    def test_non_real_spectrum_raises(self):
        # z^2 + z + 1 on the diagonal: complex conjugate roots
        P = MatrixPolynomial((np.eye(2), np.eye(2), np.eye(2)))
        with pytest.raises(NonRealSpectrum):
            proper_values(P)

    def test_near_degenerate_raises(self):
        P = MatrixPolynomial((-np.diag([1.0, 1.0 + 1e-13, 50.0]), np.eye(3)))
        with pytest.raises(NearDegenerate):
            proper_values(P)

    def test_sign_convention(self, quad_seed):
        decomp = proper_values(quad_seed)
        for v in unit_vectors(decomp):
            assert v[np.argmax(np.abs(v))] > 0


class TestDeterminantOracles:
    def test_sign_changes_bracket_values(self):
        rng = np.random.default_rng(3)
        n, k = 3, 2
        vals = random_targets(rng, n, k, low=-5, high=5)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        seed = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(n)))
        coeffs = [np.array(c) for c in seed.coeffs]
        coeffs[0][0, 1] = coeffs[0][1, 0] = 0.05
        P = MatrixPolynomial(tuple(coeffs))
        decomp = proper_values(P)
        grid = np.linspace(decomp.values[0] - 1, decomp.values[-1] + 1, 4001)
        dets = np.array([np.linalg.det(evaluate(P, z)) for z in grid])
        crossings = grid[:-1][np.sign(dets[:-1]) != np.sign(dets[1:])]
        assert len(crossings) == len(decomp.values)
        for lam in decomp.values:
            assert np.min(np.abs(crossings - lam)) < grid[1] - grid[0]

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_linearization_determinant_identity(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        vals = random_targets(rng, n, k, low=-4, high=4, min_gap=0.2)
        spec = TargetSpectrum(values=vals, n=n, k=k)
        lead = LeadingDiagonal(alpha_k=rng.uniform(0.5, 2, n))
        P = seed_coefficients(spec, lead)
        C = linearize(P)
        det_lead = np.prod(lead.alpha_k)
        # compare det A(z) / (det A_k * det(zI - C)) ~ 1 at sample points
        for z in [-3.3, 0.7, 2.9]:
            lhs = np.linalg.det(evaluate(P, z))
            rhs = det_lead * np.linalg.det(z * np.eye(n * k) - C)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def reference_vectors(P):
    """Proper vectors one value at a time: companion top block, the larger of
    its real and imaginary parts, normalised, largest component positive."""
    w, V = np.linalg.eig(linearize(P))
    out = []
    for idx in np.argsort(w.real, kind="stable"):
        v = V[:P.n, idx]
        v = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
        v = v / np.linalg.norm(v)
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        out.append(v)
    return np.array(out)


def sparse_graph(rng, n, mean_degree=2.0):
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < mean_degree / (n - 1)
    return Graph(n=n, edges=tuple(zip((i[keep] + 1).tolist(), (j[keep] + 1).tolist())))


def sparse_quadratic_80():
    """n = 80, k = 2 seed diagonals with sparse off-diagonals at tau = 1."""
    rng = np.random.default_rng(0)
    n, k = 80, 2
    m = n * k
    vals = np.arange(m) - (m - 1) / 2 + rng.uniform(-0.35, 0.35, size=m)
    g = sparse_graph(rng, n)
    spec = ProblemSpec(
        spectrum=TargetSpectrum(values=vals, n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, size=n)),
        graphs=(g, g),
        epsilon=0.05,
    )
    return assemble(seed_unknowns(spec.spectrum, spec.lead), spec)


def solved_cubic():
    """The converged continuation_solve of a seeded n = 4, k = 3 instance at
    epsilon = 1 (the solve steps tau by 1/8 to reach 1)."""
    rng = np.random.default_rng(5)
    n, k = 4, 3
    graphs = tuple(sparse_graph(rng, n) for _ in range(k))
    spec = ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
        graphs=graphs,
        epsilon=1.0,
    )
    rep = continuation_solve(spec)
    assert rep.converged
    return rep.polynomial


@pytest.mark.parametrize("build", [golden_path4_polynomial, golden_linked4_polynomial,
                                   sparse_quadratic_80, solved_cubic])
def test_proper_vectors_have_small_backward_error(build):
    # the vectors are the companion eigenvector blocks as eig returns them;
    # normwise backward error ||P(lambda) v|| / sum_s |lambda|^s ||A_s||_F
    P = build()
    decomp = proper_values(P)
    residuals = evaluate(P, decomp.values) @ unit_vectors(decomp)[:, :, None]
    backward = np.linalg.norm(residuals[..., 0], axis=1) / coefficient_scale(P, decomp.values)
    assert np.max(backward) <= 1e-13


@pytest.mark.parametrize("phase", [1j, 1.0 + 0j])
def test_complex_eig_output_gives_the_real_rows(monkeypatch, phase):
    # eig returns complex arrays when any eigenvalue is non-real; for a real
    # spectrum each vector is then real up to a phase, and the decomposition
    # keeps its larger part
    P = golden_path4_polynomial()
    want = proper_values(P)
    eig = np.linalg.eig

    def complex_eig(a):
        w, V = eig(a)
        return w + 0j, V * phase

    monkeypatch.setattr(np.linalg, "eig", complex_eig)
    got = proper_values(P)
    assert got.companion_rows.dtype == np.float64
    assert got.values.tobytes() == want.values.tobytes()
    assert got.companion_rows.tobytes() == want.companion_rows.tobytes()
    assert jacobian_x(got).tobytes() == jacobian_x(want).tobytes()


class TestBatchedRefinement:
    def test_matches_per_vector_reference_at_n_80(self):
        P = sparse_quadratic_80()
        m = P.n * P.degree
        decomp = proper_values(P)
        V = reference_vectors(P)
        assert np.max(np.abs(unit_vectors(decomp) - V)) <= 1e-12
        # jacobian_x reads P' from the companion instead of evaluating it
        dP = derivative(P)
        J = np.array([-(lam ** np.arange(P.degree))[:, None] * v ** 2 / (v @ evaluate(dP, lam) @ v)
                      for lam, v in zip(decomp.values, V)]).reshape(m, m)
        assert np.max(np.abs(jacobian_x(decomp) - J)) <= 1e-12 * np.max(np.abs(J))

    @pytest.mark.parametrize("n,k,vals", [
        (4, 2, TARGETS),
        (2, 3, np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])),
    ])
    def test_singular_rows_keep_companion_vector(self, n, k, vals):
        # integer targets on a diagonal seed: eig returns them exactly, so
        # P(lambda) has an exactly zero row and a solve with it raises
        spec = TargetSpectrum(values=vals, n=n, k=k)
        P = seed_coefficients(spec, LeadingDiagonal(alpha_k=np.ones(n)))
        decomp = proper_values(P)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(evaluate(P, decomp.values), np.ones((n * k, n, 1)))
        assert np.max(np.abs(unit_vectors(decomp) - reference_vectors(P))) <= 1e-12


def random_pencil(rng, n):
    """A_0 + zD with a dense random symmetric A_0 and a positive diagonal D."""
    B = rng.standard_normal((n, n))
    return MatrixPolynomial(((B + B.T) / 2, np.diag(rng.uniform(0.5, 2.0, n))))


class TestDegreeOnePencil:
    @pytest.mark.parametrize("n", [2, 6, 20, 80])
    def test_values_match_companion_eig(self, n):
        P = random_pencil(np.random.default_rng(n), n)
        ref = np.sort(np.linalg.eigvals(linearize(P)).real)
        vals = proper_values(P).values
        assert np.all(np.abs(vals - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("n", [2, 6, 20, 80])
    def test_vectors_match_refined_companion_vectors(self, n):
        P = random_pencil(np.random.default_rng(n), n)
        V, ref = unit_vectors(proper_values(P)), reference_vectors(P)
        up_to_sign = np.minimum(np.max(np.abs(V - ref), axis=1), np.max(np.abs(V + ref), axis=1))
        assert np.max(up_to_sign) <= 1e-10

    def test_double_value_raises_near_degenerate(self):
        # a coupled pencil with the exact double eigenvalue 1 of [[1, 1], [1, 1]] + I
        A0 = -np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NearDegenerate):
            proper_values(MatrixPolynomial((A0, np.eye(3))))

    def test_non_symmetric_constant_coefficient_raises(self):
        A0 = np.array([[1.0, 0.5], [0.25, 2.0]])
        P = MatrixPolynomial((A0, np.eye(2)))
        with pytest.raises(InvariantViolation):
            proper_values(P)

    def test_continuation_solve_does_not_call_eig(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called at degree 1")

        monkeypatch.setattr(np.linalg, "eig", forbidden)
        rng = np.random.default_rng(11)
        n = 6
        g = sparse_graph(rng, n, mean_degree=3.0)
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=random_targets(rng, n, 1), n=n, k=1),
            lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
            graphs=(g,),
            epsilon=0.3,
        )
        rep = continuation_solve(spec)
        assert rep.converged and len(rep.iterations) > 1
