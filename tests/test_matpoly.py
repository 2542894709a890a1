import sys
from concurrent.futures import ThreadPoolExecutor

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
    verify,
)

from structured_iep import matpoly
from structured_iep.matpoly import REAL_TOL_DEFAULT, companion_layout, decompose_row

from conftest import (
    TARGETS,
    coefficient_scale,
    derivative,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    jacobian_fd,
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


def test_complex_eig_output_pairs_its_real_parts_exactly():
    # the premise of decompose_row's one real tail: eig and eigvals return a
    # complex array only for a nonzero imaginary part, and LAPACK stores each
    # conjugate pair with bitwise-equal real parts
    rng = np.random.default_rng(25)
    complex_outputs = 0
    for _ in range(300):
        m = int(rng.integers(2, 41))
        A = rng.standard_normal((m, m))
        for w in (np.linalg.eig(A)[0], np.linalg.eigvals(A)):
            if np.iscomplexobj(w):
                complex_outputs += 1
                assert (w.imag != 0.0).any()
                pairs = set(zip(w.real.tolist(), w.imag.tolist()))
                assert all((re, -im) in pairs for re, im in pairs)
    assert complex_outputs > 100


@pytest.mark.parametrize("rows", [None, np.ones((4, 2))], ids=["eig", "eigvals"])
def test_a_conjugate_pair_within_the_real_tolerance_is_near_degenerate(rows):
    # entry 1, z^2 + 1e-18, has the roots +-1e-9 i, inside REAL_TOL_DEFAULT:
    # the pair passes the non-real check, ties at 0 on the real line, and the
    # separation check rejects it before any complex vector is kept
    row = np.array([[1e-18, 0.0, 0.0, 0.0], [0.0, 12.0, 0.0, -7.0]])  # [A_0 A_1]
    lead = np.ones(2)
    w = np.linalg.eigvals(companion_layout(row, lead))
    assert np.iscomplexobj(w) and 0.0 < np.abs(w.imag).max() <= REAL_TOL_DEFAULT
    with pytest.raises(NearDegenerate, match="proper values 0 and 0"):
        decompose_row(row, lead, rows=rows)


class TestOneCompanionWriter:
    """decompose_row hands its eigensolve the matrix of companion_layout,
    which writes the last block row into a copy of a cached read-only
    identity template: bitwise the layout written anew."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("vectors", [True, False], ids=["eig", "eigvals"])
    def test_the_eigensolve_sees_the_companion_layout(self, k, vectors, monkeypatch):
        n = 4
        spec = TargetSpectrum(values=np.arange(1.0, n * k + 1.0), n=n, k=k)
        lead = np.array([1.0, 0.5, 2.0, 3.0])
        x = seed_unknowns(spec, LeadingDiagonal(alpha_k=lead))
        row = np.hstack([np.diag(d) for d in x.reshape(k, n)])
        row[0, 1] = row[1, 0] = 1e-3  # one coupling, the spectrum stays real and simple
        seen, kernel = [], matpoly.lapack

        def capture(kind, C):
            seen.append((kind, C.copy()))
            return kernel(kind, C)

        monkeypatch.setattr(matpoly, "lapack", capture)
        decompose_row(row, lead, rows=None if vectors else np.ones((n * k, n)))
        monkeypatch.undo()
        fresh = np.eye(n * k, k=n)
        fresh[-n:] = -row / lead[:, None]
        assert [kind for kind, _ in seen] == ["eig" if vectors else "eigvals"]
        assert seen[0][1].tobytes() == companion_layout(row, lead).tobytes() == fresh.tobytes()

    def test_the_template_is_read_only_and_survives_a_non_real_trial(self):
        # z^2 + 1 on both entries: the roots +-i
        row, lead = np.hstack((np.eye(2), np.zeros((2, 2)))), np.ones(2)
        template = matpoly._identity_blocks(2, 4)
        C = companion_layout(row, lead)
        assert C.flags.writeable and not np.shares_memory(C, template)
        with pytest.raises(NonRealSpectrum):
            decompose_row(row, lead)
        assert matpoly._identity_blocks(2, 4) is template
        assert not template.flags.writeable
        assert template.tobytes() == np.eye(4, k=2).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            template[-1, 0] = 1.0


def coupled_companion(rng, n, k, coupling):
    """The companion of a diagonal seed with targets about one apart and a
    symmetric random coupling of size ``coupling`` in every coefficient:
    real and simple for a small coupling, often not for a large one."""
    m = n * k
    vals = np.arange(m) - (m - 1) / 2 + rng.uniform(-0.3, 0.3, m)
    rng.shuffle(vals)
    lead = rng.uniform(0.5, 2.0, n)
    x = seed_unknowns(TargetSpectrum(values=vals, n=n, k=k), LeadingDiagonal(alpha_k=lead))
    blocks = []
    for d in x.reshape(k, n):
        B = coupling * rng.standard_normal((n, n))
        blocks.append(np.diag(d) + np.triu(B, 1) + np.triu(B, 1).T)
    return companion_layout(np.hstack(blocks), lead)


def same_bits(got, want):
    """The kernel's ``got`` is numpy's ``want`` bitwise, where a real
    ``want`` is the real part of a complex ``got`` whose imaginary parts
    are all 0 (numpy's cast)."""
    if np.iscomplexobj(got) and not np.iscomplexobj(want):
        return got.shape == want.shape and not got.imag.any() and got.real.tobytes() == want.tobytes()
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def kernel_call(case):
    """(kind, operands, LinAlgError text or None) of one lapack call: each
    kind on a 3 x 2 companion or its symmetric part, non-finite input to
    eig and eigvals, and a singular solve."""
    C = coupled_companion(np.random.default_rng(29), 3, 2, coupling=1e-3)
    singular = np.arange(12.0).reshape(3, 4)  # rank 2
    bad = C.copy()
    bad[-1, 0] = np.nan
    return {
        "eig": ("eig", (C,), None),
        "eigvals": ("eigvals", (C,), None),
        "eigh": ("eigh", (C + C.T,), None),
        "eigvalsh": ("eigvalsh", (C + C.T,), None),
        "solve": ("solve", (C, C[:, 0]), None),
        "eig-nan": ("eig", (bad,), "Array must not contain infs or NaNs"),
        "eigvals-nan": ("eigvals", (bad,), "Array must not contain infs or NaNs"),
        "solve-singular": ("solve", (singular[:, :-1], singular[:, -1]), "Singular matrix"),
    }[case]


def outputs(result):
    """A kernel or numpy.linalg result as a tuple of arrays."""
    return result if isinstance(result, tuple) else (result,)


def float_state():
    """numpy's floating-point state as its public getters read it."""
    return np.geterr(), np.geterrcall(), np.getbufsize()


class TestLapackKernel:
    """matpoly.lapack calls numpy's private gufuncs (numpy.linalg._umath_linalg)
    in a floating-point state it builds with numpy's private _make_extobj and
    sets through _extobj_contextvar: on the installed numpy it must give the
    public functions' results and errors bitwise and leave the caller's
    state as it was, so a numpy release that changes the gufuncs or the
    error-state names fails here."""

    @pytest.mark.parametrize("n, k", [(n, k) for k in (2, 3) for n in range(2, 9)] + [(80, 2)])
    def test_eig_and_eigvals_of_real_spectrum_companions(self, n, k):
        rng = np.random.default_rng([29, n, k])
        for _ in range(3):
            C = coupled_companion(rng, n, k, coupling=1e-3)
            w, V = np.linalg.eig(C)
            assert not np.iscomplexobj(w)  # the premise: a real spectrum
            got_w, got_V = matpoly.lapack("eig", C)
            assert same_bits(got_w, w) and same_bits(got_V, V)
            assert same_bits(matpoly.lapack("eigvals", C), np.linalg.eigvals(C))

    def test_eig_and_eigvals_of_companions_with_conjugate_pairs(self):
        rng = np.random.default_rng(29)
        complex_outputs = 0
        for _ in range(30):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            C = coupled_companion(rng, n, k, coupling=2.0)
            w, V = np.linalg.eig(C)
            complex_outputs += np.iscomplexobj(w)
            got_w, got_V = matpoly.lapack("eig", C)
            assert same_bits(got_w, w) and same_bits(got_V, V)
            assert same_bits(matpoly.lapack("eigvals", C), np.linalg.eigvals(C))
        assert complex_outputs >= 10

    @pytest.mark.parametrize("n", [2, 3, 6, 20, 80])
    def test_eigh_and_eigvalsh_of_pencil_matrices(self, n):
        rng = np.random.default_rng([29, n])
        for _ in range(3):
            A0 = rng.standard_normal((n, n))
            root = np.sqrt(rng.uniform(0.5, 2.0, n))
            C = -(A0 + A0.T) / np.outer(root, root)
            w, U = np.linalg.eigh(C)
            got_w, got_U = matpoly.lapack("eigh", C)
            assert same_bits(got_w, w) and same_bits(got_U, U)
            assert same_bits(matpoly.lapack("eigvalsh", C), np.linalg.eigvalsh(C))

    @pytest.mark.parametrize("m", [2, 8, 24, 160])
    def test_solve_contiguous_and_on_a_strided_view(self, m):
        # the Newton step solves J x = r; the tangent solves with the
        # strided view A[:, :-1] of [J  dlambda/dtau]
        rng = np.random.default_rng([29, m])
        A = rng.standard_normal((m, m + 1))
        J = np.ascontiguousarray(A[:, :-1])
        assert same_bits(matpoly.lapack("solve", J, A[:, -1]), np.linalg.solve(J, A[:, -1]))
        assert same_bits(matpoly.lapack("solve", A[:, :-1], -A[:, -1]), np.linalg.solve(A[:, :-1], -A[:, -1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["eig", "eigvals"])
    def test_non_finite_input_raises_numpys_error(self, kind, bad):
        C = coupled_companion(np.random.default_rng(29), 3, 2, coupling=1e-3)
        C[-1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError) as want:
            getattr(np.linalg, kind)(C)
        with pytest.raises(np.linalg.LinAlgError) as got:
            matpoly.lapack(kind, C)
        assert str(got.value) == str(want.value) == "Array must not contain infs or NaNs"

    @pytest.mark.parametrize("strided", [False, True])
    def test_singular_solve_raises_numpys_error(self, strided):
        A = np.arange(12.0).reshape(3, 4)  # rank 2
        J = A[:, :-1] if strided else np.ascontiguousarray(A[:, :-1])
        errors = np.geterr()
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.solve(J, A[:, -1])
        with pytest.raises(np.linalg.LinAlgError) as got:
            matpoly.lapack("solve", J, A[:, -1])
        assert str(got.value) == str(want.value) == "Singular matrix"
        assert np.geterr() == errors  # the error state is restored

    @pytest.mark.parametrize("case", ["eig", "eigvals", "eigh", "eigvalsh", "solve",
                                      "eig-nan", "eigvals-nan", "solve-singular"])
    def test_the_callers_error_state_is_restored(self, case):
        kind, operands, error = kernel_call(case)
        with np.errstate(all="print"):  # neither numpy's default nor the kernel's
            before = float_state()
            if error is None:
                matpoly.lapack(kind, *operands)
            else:
                with pytest.raises(np.linalg.LinAlgError, match=f"^{error}$"):
                    matpoly.lapack(kind, *operands)
            assert float_state() == before

    def test_a_raising_caller_still_gets_numpys_error(self):
        _, (J, b), _ = kernel_call("solve-singular")
        with np.errstate(all="raise"):
            outer = float_state()
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                matpoly.lapack("solve", J, b)
            assert float_state() == outer

    @pytest.mark.parametrize("case", ["eig", "eigvals", "eigh", "eigvalsh", "solve"])
    def test_results_do_not_depend_on_the_buffer_size(self, case):
        # the kernel's states keep the buffer size of import time, and the
        # public wrapper runs at the caller's: the gufuncs must not read it
        kind, operands, _ = kernel_call(case)
        got = matpoly.lapack(kind, *operands)
        with np.errstate():
            np.setbufsize(16)
            want = getattr(np.linalg, kind)(*operands)
        assert all(same_bits(g, w) for g, w in zip(outputs(got), outputs(want)))

    def test_each_thread_keeps_its_own_error_state(self):
        calls = [kernel_call(case) for case in ("eig", "eigvalsh", "solve", "solve-singular")]
        want = [matpoly.lapack(kind, *operands) if error is None else None for kind, operands, error in calls]

        def worker(raising):
            with np.errstate(all="raise" if raising else "warn"):
                inside = float_state()
                for i in range(1000):
                    kind, operands, error = calls[i % len(calls)]
                    if error is None:
                        got = matpoly.lapack(kind, *operands)
                        assert all(same_bits(g, w) for g, w in zip(outputs(got), outputs(want[i % len(calls)])))
                    else:
                        with pytest.raises(np.linalg.LinAlgError, match=f"^{error}$"):
                            matpoly.lapack(kind, *operands)
                    assert float_state() == inside
            return inside, float_state()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(worker, raising) for raising in (True, False)]
                (raised, raised_after), (warned, warned_after) = (f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(switch)
        assert set(raised[0].values()) == {"raise"} and set(warned[0].values()) == {"warn"}
        assert raised_after == warned_after == float_state()


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

    def test_continuation_solve_does_not_call_eig(self, monkeypatch):
        kernel = matpoly.lapack

        def companion_forbidden(kind, *operands):
            if kind in ("eig", "eigvals"):
                raise AssertionError(f"{kind} called at degree 1")
            return kernel(kind, *operands)

        monkeypatch.setattr(matpoly, "lapack", companion_forbidden)
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


def bad_polynomial(k, s, entries):
    """n = 2, degree k: A_s < k is diag(1, 2), A_k the identity, then
    ``entries`` written into A_s (s = k: into A_k)."""
    coeffs = [np.diag([1.0, 2.0]) for _ in range(k)] + [np.eye(2)]
    for ij, v in entries.items():
        coeffs[s][ij] = v
    return MatrixPolynomial(tuple(coeffs))


# name -> (polynomial outside the theorem's hypothesis, error class, message)
BAD_POLYNOMIALS = {
    **{f"{kind}-k{k}-A{s}": (bad_polynomial(k, s, entries), InvariantViolation,
                             "polynomial coefficients must be finite and symmetric")
       for k, s in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)]
       for kind, entries in [("asymmetric", {(0, 1): 0.5, (1, 0): 0.25}),
                             ("nan", {(0, 1): np.nan, (1, 0): np.nan}), ("inf", {(1, 1): np.inf})]},
    **{f"{kind}-leading-k{k}": (bad_polynomial(k, k, entries), LeadingCoefficientError, message)
       for k in (1, 2)
       for kind, entries, message in [
           # a symmetric off-diagonal pair: the diagonal is fine, the shape is not
           ("nondiagonal", {(0, 1): 0.1, (1, 0): 0.1}, "leading coefficient must be diagonal"),
           ("nonpositive", {(1, 1): -1.0}, "leading diagonal must be strictly positive"),
           ("zero", {(1, 1): 0.0}, "leading diagonal must be strictly positive"),
           ("inf", {(1, 1): np.inf}, "leading diagonal must be finite"),
           ("-inf", {(1, 1): -np.inf}, "leading diagonal must be finite"),
           ("nan", {(1, 1): np.nan}, "leading diagonal must be finite"),
       ]},
    # the order: a bad A_k outranks a bad A_s, and degree 0
    "nan-leading-asymmetric-A0": (MatrixPolynomial((np.array([[1.0, 0.5], [0.25, 2.0]]), np.eye(2),
                                                     np.diag([1.0, np.nan]))),
                                  LeadingCoefficientError, "leading diagonal must be finite"),
    "degree-0": (MatrixPolynomial((np.eye(2),)), InvariantViolation, "cannot linearize a degree-0 polynomial"),
    "nonpositive-degree-0": (MatrixPolynomial((-np.eye(2),)), LeadingCoefficientError,
                             "leading diagonal must be strictly positive"),
}


def verify_against_its_own_size(P):
    """verify of P against a problem of P's n and k, whose size check it passes."""
    k = P.degree
    spec = ProblemSpec(spectrum=TargetSpectrum(values=np.arange(1.0, 2 * k + 1), n=2, k=k),
                       lead=LeadingDiagonal(alpha_k=np.ones(2)), graphs=(Graph(2),) * k, epsilon=0.0)
    return verify(P, spec)


# the library's readers, and the tests' finite-difference reference
READERS = {
    "proper_values": proper_values,
    "linearize": linearize,
    "verify": verify_against_its_own_size,
    "jacobian_fd": jacobian_fd,
}


# no problem has k = 0, so verify of a degree-0 polynomial fails its size check first
@pytest.mark.parametrize("case, reader", [
    (case, reader) for case, (P, *_) in BAD_POLYNOMIALS.items() for reader in READERS
    if P.degree or reader != "verify"
])
def test_every_reader_raises_the_polynomial_rule(case, reader):
    # MatrixPolynomial.checked_row owns the theorem's hypothesis: every
    # reader of a polynomial raises its class and message, in its order
    P, cls, message = BAD_POLYNOMIALS[case]
    with pytest.raises(cls) as exc:
        READERS[reader](P)
    assert type(exc.value) is cls and str(exc.value) == message
