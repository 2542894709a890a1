import dataclasses
import math
import re
import types

import numpy as np
import pytest

from structured_iep import (
    DegenerateDenominator,
    Graph,
    InvariantViolation,
    LeadingCoefficientError,
    LeadingDiagonal,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    ProblemSpec,
    SingularJacobian,
    SolverControls,
    TargetSpectrum,
    assemble,
    continuation_solve,
    jacobian_x,
    match_targets,
    matpoly,
    matrix_of_graph,
    newton_solve,
    proper_values,
    seed_unknowns,
    sensitivity,
    spectral_map,
    solver,
    verify,
)
from structured_iep.problems import spec_to_config

from conftest import (
    G_EDGES,
    H_EDGES,
    PATH_EDGES,
    TARGETS,
    count_calls,
    derivative,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    quadratic_targets_spec,
    graph_edges,
    random_graph,
    random_targets,
    unit_vectors,
)
from test_eigensolve_counts import load_script
from test_matpoly import sparse_quadratic_80

EIGENSOLVE_COUNTS = load_script()


def complex_pair_spec(max_iter=10):
    """2x2 quadratic whose spectrum turns complex under any coupling strong
    enough: with a huge epsilon even tau = 1/64 fails."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=np.array([-1.0, -2.0, -3.0, -4.0]), n=2, k=2),
        lead=LeadingDiagonal(alpha_k=np.ones(2)),
        graphs=(Graph(2, ((1, 2),)), Graph(2, ((1, 2),))),
        epsilon=500.0,
        controls=SolverControls(max_iter=max_iter),
    )


def solved(spec, **kwargs):
    """newton_solve's (x, decomposition, iterations), asserting that the
    corrector converged."""
    x, decomp, corrector = newton_solve(spec, **kwargs)
    assert corrector.converged, corrector.detail
    return x, decomp, corrector.iterations


def stalling_spec():
    """Five tau steps converge, then a corrector stalls."""
    return make_spec(np.random.default_rng(87), 3, 2, epsilon=1.0)


def fold_spec(max_iter=50):
    """2x2 linear pencil whose off-diagonal 1 is exactly half the target gap:
    at tau = 1 the solution curve folds, where its Jacobian is singular."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=np.array([0.0, 2.0]), n=2, k=1),
        lead=LeadingDiagonal(alpha_k=np.ones(2)),
        graphs=(Graph(2, ((1, 2),)),),
        epsilon=1.0,
        controls=SolverControls(max_iter=max_iter),
    )


def reference_spectral_map(x, spec, tau):
    """The spectral map as the assembled polynomial gives it."""
    return proper_values(assemble(x, spec, tau))


def same_spectral_map(x, spec, tau):
    """Assert that spectral_map returns bitwise what reference_spectral_map
    returns (values, rows and coefficients [A_1 ... A_{k-1}]), or raises
    the same exception with the same message; return whether the spectrum
    was real and simple."""
    try:
        ref = reference_spectral_map(x, spec, tau)
    except (NonRealSpectrum, NearDegenerate) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            spectral_map(x, spec, tau)
        return False
    got = spectral_map(x, spec, tau)
    for name in ("values", "companion_rows", "upper"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return True


def signed_spec(rng, n, k, offdiag):
    """n entries, dense random graphs, off-diagonals offdiag(rng, m) on m edges."""
    graphs = tuple(random_graph(rng, n, p=0.7) for _ in range(k))
    return ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
        graphs=graphs,
        offdiag_values=tuple(offdiag(rng, g.num_edges) for g in graphs),
    )


def weakly_coupled_spec(n, k, seed=5):
    """An instance built as the benchmark's sweep builds them: targets on a
    jittered unit grid, sparse graphs of mean degree about 2, epsilon 0.05.
    It converges directly at tau = 1."""
    rng = np.random.default_rng([seed, n, k])
    m = n * k
    vals = np.arange(m) - (m - 1) / 2 + rng.uniform(-0.35, 0.35, size=m)
    rng.shuffle(vals)
    return ProblemSpec(
        spectrum=TargetSpectrum(values=vals, n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
        graphs=tuple(random_graph(rng, n, p=2.0 / (n - 1)) for _ in range(k)),
        epsilon=0.05,
    )


def count_eigensolves(monkeypatch):
    """Calls of matpoly's LAPACK kernel, by eigensolver kind, from now on:
    scripts/eigensolve_counts.py's counting stand-in."""
    calls = dict.fromkeys(EIGENSOLVE_COUNTS.KINDS, 0)
    monkeypatch.setattr(matpoly, "lapack", EIGENSOLVE_COUNTS.counting_kernel(calls))
    return calls


def start_shift(spec, x0, tau=1.0):
    """max_q |r_q| / g_q of the start residual r at x0."""
    res = spectral_map(x0, spec, tau).values - spec.spectrum.sorted_values()
    return float((np.abs(res) / spec.spectrum.gaps).max())


def make_spec(rng, n, k, epsilon, **controls):
    return ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
        graphs=tuple(random_graph(rng, n) for _ in range(k)),
        epsilon=epsilon,
        controls=SolverControls(**controls),
    )


def bare_seed_ladder(monkeypatch):
    """Make the seed predictor (c, rho, rows) = (0, 0, None): the first step
    is 1 and every corrector from the seed starts at the bare seed, so a
    problem on which no step converges walks the whole ladder 1, 1/2, ...,
    1/M."""
    monkeypatch.setattr(solver, "_seed_series", lambda spec: (np.zeros((3, spec.n * spec.k)), 0.0, None))


def series_start(spec, tau, order=None):
    """seed + sum_m tau^m c_m of solver._seed_series, summed by Horner in
    tau as continuation_solve sums it, to order ``order`` (the whole series
    when None): bitwise the start of a corrector from the seed at tau
    inside the predictor's gate."""
    c = solver._seed_series(spec)[0][:None if order is None else order - 1]
    shift = c[-1]
    for c_m in c[-2::-1]:
        shift = c_m + tau * shift
    return seed_unknowns(spec.spectrum, spec.lead) + tau ** 2 * shift


class TestAssemble:
    def test_zero_offdiagonals_reproduce_seed(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        P = assemble(seed_unknowns(spec.spectrum, spec.lead), spec)
        for a, b in zip(P.coeffs, spec.seed().coeffs):
            assert np.array_equal(a, b)

    def test_empty_graphs_give_diagonal(self):
        spec = quadratic_targets_spec((Graph(4), Graph(4)), epsilon=0.5)
        P = assemble(np.arange(8, dtype=float), spec)
        for c in P.coeffs:
            assert np.array_equal(c, np.diag(np.diag(c)))

    def test_golden_diagonals_reproduce_golden_matrices(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        P = assemble(x, path4_spec)
        for a, b in zip(P.coeffs, gold.coeffs):
            assert np.array_equal(a, b)

    def test_matches_a_per_graph_reference_after_a_solve(self):
        # mixed signs: at tau = 0 the edges hold -0.0 in both; the solve
        # reads spec.ramp_row throughout, and must not have written it
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
            lead=LeadingDiagonal(alpha_k=np.ones(4)),
            graphs=(Graph(4, G_EDGES), Graph(4, H_EDGES)),
            offdiag_values=(np.array([0.5, -0.25, 0.5, -0.5]), np.array([-0.5, 0.25])),
        )
        continuation_solve(spec)
        x = np.linspace(-3.0, 7.0, 8)
        for tau in (0.0, 1 / 3, 1.0):
            P = assemble(x, spec, tau)
            for s, (g, y) in enumerate(zip(spec.graphs, spec.offdiag_values)):
                assert P.coeffs[s].tobytes() == matrix_of_graph(g, x[4 * s:4 * s + 4], tau * y).tobytes()
        assert not spec.ramp_row.flags.writeable

    @pytest.mark.parametrize("tau", [np.nan, np.inf, True, 1 + 0j, "0.5", None],
                             ids=["nan", "inf", "bool", "complex", "str", "none"])
    def test_rejects_a_tau_that_is_not_a_finite_real_number(self, tau, path4_spec):
        x = seed_unknowns(path4_spec.spectrum, path4_spec.lead)
        with pytest.raises(ValueError, match="tau must be a real number"):
            assemble(x, path4_spec, tau)


class TestSpectralMap:
    def test_seed_with_zero_offdiagonals(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        vals = spectral_map(seed_unknowns(spec.spectrum, spec.lead), spec).values
        assert np.allclose(vals, np.sort(TARGETS), atol=1e-12)

    def test_golden_solution_hits_targets(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        vals = spectral_map(x, path4_spec).values
        assert np.max(np.abs(vals - np.sort(TARGETS))) <= 1e-9

    def test_continuity_in_offdiagonal_scale(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rng, 4, 2, epsilon=1.0)
        x = seed_unknowns(spec.spectrum, spec.lead)
        base = spectral_map(x, spec, tau=0.0).values
        dev = [np.linalg.norm(spectral_map(x, spec, tau=t).values - base)
               for t in (1e-2, 1e-4, 1e-6)]
        assert dev[0] > dev[1] > dev[2]
        assert dev[2] < 1e-4

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_matches_assemble_and_proper_values(self, tau, path4_spec, linked4_spec):
        rng = np.random.default_rng(59)
        specs = [path4_spec, linked4_spec] + [make_spec(rng, n, k, 0.3) for n, k in ((3, 1), (5, 3), (2, 3))]
        boundaries = 0
        for spec in specs:
            seed = seed_unknowns(spec.spectrum, spec.lead)
            real, nonreal = [], []
            for scale in (0.0, 0.1, 1.0, 5.0):
                for _ in range(4):
                    x = seed + scale * rng.standard_normal(len(seed))
                    (real if same_spectral_map(x, spec, tau) else nonreal).append(x)
            if real and nonreal:
                # bisect to the NonRealSpectrum boundary; every step is compared too
                lo, hi = real[0], nonreal[0]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if same_spectral_map(mid, spec, tau):
                        lo = mid
                    else:
                        hi = mid
                assert np.max(np.abs(hi - lo)) <= 1e-12 * np.max(np.abs(hi))
                boundaries += 1
        assert boundaries >= 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_separation_is_scaled_by_the_computed_values(self, k):
        # targets of diameter 3, uncoupled values of diameter 100 whose
        # smallest gap, 1e-9, lies between SEP_TOL_REL times the targets'
        # scale and times the values' diameter: spectral_map raises as
        # proper_values of the assembled polynomial does, in both branches
        n = 4 // k
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=np.arange(4.0), n=n, k=k),
            lead=LeadingDiagonal(alpha_k=np.ones(n)),
            graphs=(Graph(n),) * k,
        )
        # entry r's diagonals: the monic polynomial of its roots (a
        # TargetSpectrum would refuse them as not distinct at its own scale)
        roots = np.array([100.0, 0.0, 100.0 + 1e-9, 50.0]).reshape(n, k)
        x = np.array([np.poly(r)[:0:-1] for r in roots]).T.ravel()
        values = np.sort(np.linalg.eigvals(matpoly.linearize(assemble(x, spec))).real)
        gap = np.min(np.diff(values))
        assert matpoly.SEP_TOL_REL * spec.spectrum.scale < gap < matpoly.SEP_TOL_REL * (values[-1] - values[0])
        with pytest.raises(NearDegenerate) as want:
            proper_values(assemble(x, spec))
        for given in (None, np.ones((4, n))):
            with pytest.raises(NearDegenerate, match=f"^{re.escape(str(want.value))}$"):
                spectral_map(x, spec, rows=given)

    def test_vectors_equal_proper_values_vectors(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        decomp = spectral_map(x, path4_spec)
        want = proper_values(assemble(x, path4_spec))
        assert decomp.companion_rows.tobytes() == want.companion_rows.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 1 / 3, 0.8125, 1.0])
    def test_is_proper_values_of_the_assembled_polynomial(self, k, tau):
        # mixed-sign off-diagonals: the coefficient row's signed zeros must
        # be those of the assembled polynomial's coefficients too
        rng = np.random.default_rng(71 + k)
        n = 5
        spec = signed_spec(rng, n, k, lambda rng, m: 0.05 * rng.choice([-1.0, 1.0], m))
        x = seed_unknowns(spec.spectrum, spec.lead) + 0.01 * rng.standard_normal(n * k)
        assert same_spectral_map(x, spec, tau)
        upper = spectral_map(x, spec, tau).upper
        assert upper.shape == (n, (k - 1) * n)
        assert upper.tobytes() == assemble(x, spec, tau).checked_row()[0][:, n:].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_is_bitwise_at_every_tau(self, k, monkeypatch):
        # each trial scales the cached ramp row by tau: off-diagonals of both
        # signs and of magnitudes 0.01 to 3, so at k = 2, 3 most spectra are
        # not real, and the row eigensolved is checked on its own
        rng = np.random.default_rng(83 + k)
        spec = signed_spec(rng, 5, k, lambda rng, m: rng.choice([-1.0, 1.0], m) * rng.uniform(0.01, 3.0, m))
        rows, decompose = [], solver.decompose_row

        def recording(row, *args):
            rows.append(row.copy())
            return decompose(row, *args)

        monkeypatch.setattr(solver, "decompose_row", recording)
        seed = seed_unknowns(spec.spectrum, spec.lead)
        real = 0
        for tau in (0.0, 1 / 64, 1 / 3, 0.375, 0.75, 1.0):
            for scale in (0.0, 0.01, 0.5):
                x = seed + scale * rng.standard_normal(len(seed))
                real += same_spectral_map(x, spec, tau)
                want = np.hstack([matrix_of_graph(g, x[5 * s:5 * s + 5], tau * y)
                                  for s, (g, y) in enumerate(zip(spec.graphs, spec.offdiag_values))])
                assert rows[-1].tobytes() == want.tobytes()
        assert len(rows) == 18 and real >= 5

    def test_solve_leaves_the_cached_ramp_unchanged(self, linked4_spec, monkeypatch):
        cached = (linked4_spec.ramp_row, linked4_spec.lead.alpha_k)
        before = [a.tobytes() for a in cached]
        rows, decompose = [], solver.decompose_row

        def recording(row, *args):
            rows.append(row)
            return decompose(row, *args)

        monkeypatch.setattr(solver, "decompose_row", recording)
        assert continuation_solve(linked4_spec).converged
        assert len(rows) > 5
        assert [a.tobytes() for a in cached] == before
        assert not linked4_spec.ramp_row.flags.writeable
        assert not any(np.shares_memory(row, linked4_spec.ramp_row) for row in rows)


class TestMatchTargets:
    def test_identical_lists(self):
        perm, fallback = match_targets(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(perm, [0, 1, 2])
        assert not fallback

    def test_uniform_shift_keeps_identity(self):
        cur = np.array([1.01, 2.01, 3.01])
        perm, fallback = match_targets(cur, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(perm, [0, 1, 2])
        assert not fallback

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_targets(np.array([1.0]), np.array([1.0, 2.0]))


class TestNewtonSolve:
    def test_zero_epsilon_returns_seed_in_zero_iterations(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        x, _, iterations = solved(spec)
        assert len(iterations) == 1  # the initial residual record only
        assert np.array_equal(x, seed_unknowns(spec.spectrum, spec.lead))

    def test_seed_newton_step_is_tiny(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        _, _, iterations = solved(spec)
        assert iterations[-1].residual <= 1e-12

    def test_random_instance(self):
        rng = np.random.default_rng(17)
        spec = make_spec(rng, 5, 3, epsilon=0.1, newton_tol=1e-10)
        x, _, iterations = solved(spec)
        assert iterations[-1].residual <= 1e-10
        # independent re-check of the polynomial of x: values and structure
        assert verify(assemble(x, spec), spec, value_tol=1e-10).passed

    def test_monotone_residual_trace(self):
        rng = np.random.default_rng(23)
        spec = make_spec(rng, 4, 2, epsilon=0.15)
        _, _, iterations = solved(spec)
        residuals = [t.residual for t in iterations]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_max_iter_counts_accepted_steps(self):
        # a corrector that needs exactly N steps converges under max_iter = N,
        # to the same x, and fails under N - 1
        spec = make_spec(np.random.default_rng(23), 4, 2, epsilon=0.15)
        x, _, iterations = solved(spec)
        N = len(iterations) - 1
        assert N >= 2

        def with_max_iter(m):
            return dataclasses.replace(spec, controls=dataclasses.replace(spec.controls, max_iter=m))

        x_n, _, iterations_n = solved(with_max_iter(N))
        assert x_n.tobytes() == x.tobytes() and len(iterations_n) == N + 1
        _, decomp, corrector = newton_solve(with_max_iter(N - 1))
        assert corrector.kind is NoConvergence and decomp is None
        assert corrector.detail.endswith(f"after {N - 1} iterations")
        # the same first N - 1 steps, then the budget
        assert corrector.ended == "budget" and corrector.trials == N - 1
        assert corrector.iterations == iterations_n[:N]

    def test_offdiagonals_bitwise_fixed(self):
        rng = np.random.default_rng(31)
        spec = make_spec(rng, 4, 2, epsilon=0.2)
        # the direct Newton solve, and the polynomial of its report
        rep = continuation_solve(spec)
        assert rep.converged and rep.continuation_path == (1.0,)
        for s, g in enumerate(spec.graphs):
            A = rep.polynomial.coeffs[s]
            for y, (i, j) in zip(spec.offdiag_values[s], g.edges):
                assert A[i - 1, j - 1] == y and A[j - 1, i - 1] == y
            edge_set = set(g.edges)
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if (i + 1, j + 1) not in edge_set:
                        assert A[i, j] == 0.0

    def test_one_coefficient_row_per_trial_whatever_the_trial_count(self, monkeypatch):
        # every spectral_map decomposes its own coefficient row: no
        # polynomial is assembled or linearized, and no proper_values runs
        calls = count_calls(monkeypatch, solver, "assemble", "decompose_row", "proper_values", "spectral_map")
        count_calls(monkeypatch, matpoly, "linearize", calls=calls)
        trials = []
        # at its fold Newton converges linearly, so the full solve makes many
        # trials; max_iter = 1 allows one, and a start at the root none
        fold = fold_spec()
        root, _, _ = solved(fold)
        for spec, x0 in ((fold, None), (fold_spec(max_iter=1), None), (fold, root)):
            calls.update(dict.fromkeys(calls, 0))
            newton_solve(spec, x0=x0)
            assert calls["decompose_row"] == calls["spectral_map"] >= 1
            assert calls["assemble"] == calls["linearize"] == calls["proper_values"] == 0
            trials.append(calls["spectral_map"])
        assert max(trials) > 10 * min(trials)

    def test_stalled_step_stops_after_one_trial(self):
        # at tau = 1/64 the complex pair's first full Newton step does not
        # lower the residual
        spec = complex_pair_spec(max_iter=8)
        x, decomp, corrector = newton_solve(spec, tau=1 / 64)
        assert corrector.kind is NoConvergence and corrector.tau == 1 / 64
        assert re.search(r"full step did not lower the residual .*\(iteration 1\)", corrector.detail)
        assert corrector.ended == "trial" and corrector.trials == 1  # after the start, the one trial
        # the last accepted iterate is the start, and no decomposition is kept
        assert len(corrector.iterations) == 1 and decomp is None
        assert x.tobytes() == seed_unknowns(spec.spectrum, spec.lead).tobytes()

    @pytest.mark.parametrize("kwargs", [
        {"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": np.inf}, {"tol": True}, {"tol": "1e-3"},
        {"tau": np.nan}, {"tau": np.inf}, {"tau": -np.inf}, {"tau": True}, {"tau": "1"},
    ])
    def test_rejects_bad_tol_and_tau(self, kwargs, path4_spec):
        with pytest.raises(InvariantViolation, match="tol|tau"):
            newton_solve(path4_spec, **kwargs)

    @pytest.mark.parametrize("x0", [
        np.zeros(3), np.r_[np.nan, np.ones(7)], np.r_[np.ones(7), np.inf], [True] * 8, "abc",
        np.ones(8) + 0j,
    ], ids=["length-3", "nan", "inf", "bool", "str", "complex"])
    def test_rejects_a_bad_x0(self, x0, path4_spec):
        with pytest.raises(InvariantViolation, match=r"x0 must be a finite real vector of shape \(8,\)"):
            newton_solve(path4_spec, x0=x0)

    def test_rejects_a_nan_x0_at_degree_one(self):
        # k = 1 would otherwise reach eigh of the pencil matrix
        with pytest.raises(InvariantViolation, match=r"x0 must be a finite real vector of shape \(2,\)"):
            newton_solve(fold_spec(), x0=np.array([np.nan, 0.0]))

    def test_nonreal_start_fails_fast(self, path4_spec):
        # full-strength off-diagonals on both path coefficients push a pair
        # of values complex; direct Newton must fail fast
        x, decomp, corrector = newton_solve(path4_spec)
        assert corrector.kind is NonRealSpectrum and corrector.detail
        assert corrector.ended == "start" and corrector.iterations == () and corrector.trials == 0
        assert decomp is None
        assert x.tobytes() == seed_unknowns(path4_spec.spectrum, path4_spec.lead).tobytes()
        # the record holds the class and the message, not the exception
        assert not any(isinstance(getattr(corrector, f.name), BaseException)
                       for f in dataclasses.fields(corrector))


class TestStepTests:
    """newton_solve's step tests: a Newton step longer than its reference
    fails the corrector before that step's trial and its eigensolve."""

    @staticmethod
    def from_the_bare_seed():
        # converges from the bare seed in at least two steps
        spec = make_spec(np.random.default_rng(23), 4, 2, epsilon=0.15)
        x, _, iterations = solved(spec)
        assert len(iterations) >= 3
        return spec, x, iterations

    def test_a_first_step_longer_than_the_displacement_fails_before_its_trial(self, monkeypatch):
        spec, _, iterations = self.from_the_bare_seed()
        eigensolves = count_eigensolves(monkeypatch)
        x, decomp, corrector = newton_solve(spec, displacement=np.nextafter(iterations[1].step_norm, 0.0))
        assert corrector.kind is NoConvergence and decomp is None
        assert re.fullmatch(r"Newton step \S+ longer than the predictor displacement \S+ \(iteration 1\)",
                            corrector.detail)
        # the start's eigensolve and no trial's
        assert corrector.ended == "step" and corrector.trials == 0 and corrector.iterations == iterations[:1]
        assert eigensolves == {"eig": 1, "eigvals": 0, "eigh": 0, "eigvalsh": 0}
        assert x.tobytes() == seed_unknowns(spec.spectrum, spec.lead).tobytes()

    def test_a_first_step_equal_to_the_displacement_is_taken(self):
        spec, x, iterations = self.from_the_bare_seed()
        x_equal, _, iterations_equal = solved(spec, displacement=iterations[1].step_norm)
        assert x_equal.tobytes() == x.tobytes() and iterations_equal == iterations

    def test_a_bare_seed_start_skips_the_first_step_test(self, path4_spec, monkeypatch):
        # without a seed predictor (_seed_series's (0, inf, None)) the first
        # corrector starts at the bare seed at the floor 1/M, with
        # displacement 0, and takes its first step whatever its length
        calls, newton = [], solver.newton_solve

        def recording(*args, **kwargs):
            result = newton(*args, **kwargs)
            calls.append((kwargs["displacement"], result[2]))
            return result

        monkeypatch.setattr(solver, "newton_solve", recording)
        monkeypatch.setattr(solver, "_seed_series", lambda spec: (np.zeros((3, spec.n * spec.k)), np.inf, None))
        continuation_solve(path4_spec)
        displacement, first = calls[0]
        assert first.tau == 1.0 / solver.MAX_CONTINUATION_STEPS and displacement == 0.0
        assert first.converged and first.trials >= 1 and first.iterations[1].step_norm > 0.0

    def test_continuation_passes_each_predictors_displacement(self, path4_spec, monkeypatch):
        # path4: the seed series at tau = 1/2, then the tangent step to 1
        calls, newton = [], solver.newton_solve

        def recording(*args, **kwargs):
            result = newton(*args, **kwargs)
            calls.append((kwargs["x0"], kwargs["displacement"], result[0]))
            return result

        monkeypatch.setattr(solver, "newton_solve", recording)
        assert continuation_solve(path4_spec).continuation_path == (0.5, 1.0)
        x_prev = seed_unknowns(path4_spec.spectrum, path4_spec.lead)
        for x0, displacement, x in calls:
            assert displacement == pytest.approx(np.linalg.norm(x0 - x_prev), rel=1e-12) and displacement > 0.0
            x_prev = x

    @pytest.mark.parametrize("scale, taken", [(1.0, True), (1.0 + 1e-12, False)], ids=["equal", "longer"])
    def test_a_later_step_longer_than_one_and_a_half_times_the_last_fails_before_its_trial(
            self, scale, taken, monkeypatch):
        # nine unknowns, scripted residuals and an identity Jacobian, so each
        # Newton step is its residual: step 1 is (1/8, 0, ..., 0), of norm
        # 1/8, and step 2 is (1/16, ..., 1/16), of norm 3/16 = 1.5 * 1/8
        # exactly (times scale), after a trial that lowered the residual
        # from 1/8 to 1/16
        spec = make_spec(np.random.default_rng(5), 3, 3, epsilon=0.1)
        targets, maps = spec.spectrum.sorted_values(), []
        residuals = [np.eye(9)[0] / 8, np.full(9, scale / 16), np.zeros(9)]

        def scripted(x, spec, tau, rows=None):
            maps.append(x)
            return types.SimpleNamespace(values=targets + residuals[len(maps) - 1], companion_rows=None)

        monkeypatch.setattr(solver, "spectral_map", scripted)
        monkeypatch.setattr(solver, "jacobian_x", lambda decomp: np.eye(9))
        _, _, corrector = newton_solve(spec, tau=0.5, tol=1e-12)
        assert [r.step_norm for r in corrector.iterations[:2]] == [0.0, 0.125]
        if taken:
            assert corrector.ended == "converged" and corrector.trials == 2 and len(maps) == 3
            assert corrector.iterations[2].step_norm == 0.1875
        else:
            assert corrector.kind is NoConvergence and corrector.ended == "step" and corrector.trials == 1
            assert len(maps) == 2
            assert corrector.detail == "Newton step 0.188 longer than 1.5 times the previous step 0.125 (iteration 2)"


class TestVectorReuse:
    @pytest.mark.parametrize("k, seed, values", [(1, 6, "eigvalsh"), (2, 7, "eigvals")])
    def test_a_direct_start_within_tolerance_makes_one_values_only_eigensolve(self, k, seed, values, monkeypatch):
        # the seed series reaches its tolerance and brings its own vectors:
        # the direct corrector's start solves for values only and converges
        # there, with no trial and no Jacobian
        spec = weakly_coupled_spec(20, k, seed)
        assert solver._seed_series(spec)[2] is not None
        eigensolves = count_eigensolves(monkeypatch)
        calls = count_calls(monkeypatch, solver, "jacobian_x")
        rep = continuation_solve(spec)
        assert rep.converged and rep.continuation_path == (1.0,) and rep.correctors[0].trials == 0
        assert eigensolves == dict(dict.fromkeys(eigensolves, 0), **{values: 1})
        assert calls == {"jacobian_x": 0}

    @pytest.mark.parametrize("k, seed", [(1, 6), (2, 7), (3, 5)])
    def test_the_series_vectors_are_the_direct_starts_proper_vectors(self, k, seed):
        # the series' rows are the root's proper vectors summed to its
        # order; proper_values' vectors at a start within tol of the targets
        # differ from the root's by about tol / gap (VECTOR_REUSE_SHIFT), and
        # the truncation is allowed a thousand times that
        spec = weakly_coupled_spec(20, k, seed)
        c, rho, rows = solver._seed_series(spec)
        assert len(c) > 3 and rows.shape == (spec.n * spec.k, spec.n)
        start = spectral_map(series_start(spec, 1.0), spec)
        tol = spec.controls.resolved_tol(spec.spectrum)
        assert np.max(np.abs(start.values - spec.spectrum.sorted_values())) <= tol
        series = types.SimpleNamespace(companion_rows=rows)
        assert np.max(np.abs(unit_vectors(series) - unit_vectors(start))) <= 1e3 * tol / spec.spectrum.gaps.min()

    @pytest.mark.parametrize("k, vectors, values", [(1, "eigh", "eigvalsh"), (2, "eig", "eigvals")])
    def test_final_corrector_takes_vectors_once(self, k, vectors, values, monkeypatch):
        # without the series' vectors, a start near the root at tau = 1
        # takes vectors once, at its start, and its trials values only
        spec = weakly_coupled_spec(20, k)
        x0 = series_start(spec, 1.0, order=4)
        assert start_shift(spec, x0) <= solver.VECTOR_REUSE_SHIFT
        calls = count_eigensolves(monkeypatch)
        _, _, iterations = solved(spec, x0=x0)
        trials = len(iterations) - 1  # no trial was rejected
        assert trials >= 1
        assert calls == dict(dict.fromkeys(calls, 0), **{vectors: 1, values: trials})

    def test_only_the_direct_corrector_is_given_the_series_vectors(self, monkeypatch):
        # the direct corrector at tau = 1 fails (forced); its retry at 1/2,
        # from the seed too, takes exact vectors, which the tangent reads
        spec = weakly_coupled_spec(20, 2, 7)
        calls, newton = [], solver.newton_solve

        def failing_first(*args, **kwargs):
            calls.append((kwargs["tau"], kwargs["rows"]))
            if len(calls) == 1:
                return kwargs["x0"], None, solver.Corrector(kwargs["tau"], (), "start", NonRealSpectrum, "forced")
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", failing_first)
        rep = continuation_solve(spec)
        assert rep.converged and rep.continuation_path == (0.5, 1.0)
        assert [tau for tau, _ in calls] == [1.0, 0.5, 1.0]
        assert np.array_equal(calls[0][1], solver._seed_series(spec)[2])
        assert calls[1][1] is None and calls[2][1] is None

    def test_series_vectors_outside_the_gate_fall_back_to_exact_ones(self, monkeypatch):
        # given vectors and a start beyond VECTOR_REUSE_SHIFT, the start takes
        # one exact eigensolve more and the corrector is the one that exact
        # vectors give: bitwise the same iterates, decomposition and record
        spec = weakly_coupled_spec(20, 2, 7)
        rows = solver._seed_series(spec)[2]
        x0 = series_start(spec, 1.0, order=4)
        monkeypatch.setattr(solver, "VECTOR_REUSE_SHIFT", np.nextafter(start_shift(spec, x0), 0.0))
        exact = newton_solve(spec, x0=x0)
        calls = count_eigensolves(monkeypatch)
        given = newton_solve(spec, x0=x0, rows=rows)
        assert given[2] == exact[2] and given[2].converged and given[2].trials >= 1
        assert given[0].tobytes() == exact[0].tobytes()
        for name in ("values", "companion_rows"):
            assert getattr(given[1], name).tobytes() == getattr(exact[1], name).tobytes()
        # the start's values-only eigensolve, its exact one, and vectors at every trial
        assert calls == {"eig": 1 + given[2].trials, "eigvals": 1, "eigh": 0, "eigvalsh": 0}

    def test_start_beyond_the_gate_takes_vectors_at_every_trial(self, monkeypatch):
        spec = weakly_coupled_spec(20, 2)
        x0 = seed_unknowns(spec.spectrum, spec.lead)
        omega = start_shift(spec, x0)
        calls = count_eigensolves(monkeypatch)
        for gate, reused in ((np.nextafter(omega, 0.0), False), (omega, True)):
            monkeypatch.setattr(solver, "VECTOR_REUSE_SHIFT", gate)
            calls.update(eig=0, eigvals=0)
            _, _, iterations = solved(spec, x0=x0)
            trials = len(iterations) - 1
            assert trials >= 2
            # vectors at the start, and at every trial unless reused
            assert (calls["eig"], calls["eigvals"]) == ((1, trials) if reused else (trials + 1, 0))

    def test_no_reuse_below_full_coupling(self, monkeypatch):
        # a corrector at tau < 1 feeds the tangent its vectors, however close
        # to its root it starts: here at the seed predictor's start
        spec = weakly_coupled_spec(20, 2)
        x0 = series_start(spec, 0.5)
        assert start_shift(spec, x0, tau=0.5) <= solver.VECTOR_REUSE_SHIFT
        calls = count_eigensolves(monkeypatch)
        _, _, iterations = solved(spec, x0=x0, tau=0.5)
        assert calls["eig"] == len(iterations) >= 2 and calls["eigvals"] == 0

    def test_returned_decomposition_has_exact_values_and_the_start_rows(self):
        spec = weakly_coupled_spec(20, 2)
        x0 = series_start(spec, 1.0, order=4)
        assert start_shift(spec, x0) <= solver.VECTOR_REUSE_SHIFT
        x, decomp, iterations = solved(spec, x0=x0)
        assert len(iterations) >= 3
        start = spectral_map(x0, spec)
        assert decomp.companion_rows.tobytes() == start.companion_rows.tobytes()
        values = spectral_map(x, spec, rows=start.companion_rows).values
        assert decomp.values.tobytes() == values.tobytes()
        assert np.max(np.abs(decomp.values - spectral_map(x, spec).values)) <= 1e-12 * spec.spectrum.scale
        assert iterations[-1].residual <= spec.controls.resolved_tol(spec.spectrum)


class TestValuesOnly:
    """spectral_map given rows: eigenvalues only, with the full branch's checks."""

    def test_nonreal_spectrum_raises_in_both_branches(self):
        # uncoupled, entry r is z^2 + r: values +-i, +-i sqrt(2)
        spec = complex_pair_spec()
        for given in (None, np.ones((4, 2))):
            with pytest.raises(NonRealSpectrum):
                spectral_map(np.array([1.0, 2.0, 0.0, 0.0]), spec, tau=0.0, rows=given)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_near_multiple_value_raises_in_both_branches(self, k):
        # entry 2 uncoupled with entry 1's seed diagonals, up to 1e-13: k
        # double proper values
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=np.arange(2.0 * k), n=2, k=k),
            lead=LeadingDiagonal(alpha_k=np.ones(2)),
            graphs=(Graph(2),) * k,
            epsilon=0.0,
        )
        x = seed_unknowns(spec.spectrum, spec.lead)
        x[1::2] = x[0::2] * (1.0 + 1e-13)
        for given in (None, np.ones((2 * k, 2))):
            with pytest.raises(NearDegenerate):
                spectral_map(x, spec, rows=given)

    @pytest.mark.parametrize("n, k", [(3, 1), (20, 1), (5, 2), (20, 2), (4, 3), (20, 3)])
    def test_values_agree_with_the_full_branch(self, n, k):
        rng = np.random.default_rng([61, n, k])
        spec = make_spec(rng, n, k, epsilon=0.3) if n < 20 else weakly_coupled_spec(n, k)
        seed = seed_unknowns(spec.spectrum, spec.lead)
        real = 0
        for scale in (0.0, 0.01, 0.1, 1.0, 5.0):
            x = seed + scale * rng.standard_normal(n * k)
            try:
                full = spectral_map(x, spec)
            except (NonRealSpectrum, NearDegenerate) as exc:
                with pytest.raises(type(exc)):
                    spectral_map(x, spec, rows=np.ones((n * k, n)))
                continue
            got = spectral_map(x, spec, rows=full.companion_rows)
            assert got.companion_rows is full.companion_rows
            assert np.max(np.abs(got.values - full.values)) <= 1e-12 * spec.spectrum.scale
            real += 1
        assert real >= 2


class TestContinuationSolve:
    def test_single_step_matches_direct_newton(self):
        rng = np.random.default_rng(41)
        spec = make_spec(rng, 4, 2, epsilon=0.1)
        assert solver._seed_series(spec)[1] <= solver.SEED_SHIFT_MAX  # the direct attempt starts at the series
        predicted, _, iterations = solved(spec, x0=series_start(spec, 1.0))
        cont = continuation_solve(spec)
        assert cont.continuation_path == (1.0,)
        assert np.array_equal(cont.x, predicted)
        assert cont.iterations == iterations
        # the same root as Newton from the bare seed
        direct, _, _ = solved(spec)
        assert np.max(np.abs(cont.x - direct)) <= 1e-9 * np.max(np.abs(direct))

    def test_path4_requires_continuation(self, path4_spec):
        rep = continuation_solve(path4_spec)
        assert rep.converged
        assert len(rep.continuation_path) > 1
        assert rep.continuation_path[-1] == 1.0
        assert rep.structure_ok

    def test_amplified_offdiagonals_flagged_or_converged(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=5.0, max_iter=30)
        rep = continuation_solve(spec)
        if rep.converged:
            assert rep.residual <= spec.controls.resolved_tol(spec.spectrum)
        else:
            assert rep.failure is not None
            # every accepted intermediate still met its tolerance
            assert all(t <= 1.0 for t in rep.continuation_path)

    def test_structurally_complex_pair_reported(self):
        rep = continuation_solve(complex_pair_spec())
        assert not rep.converged
        assert rep.failure is not None

    def test_failure_names_kind_and_tau_when_no_tau_converged(self):
        spec = complex_pair_spec()
        rep = continuation_solve(spec)
        # the last converged point is the seed at tau = 0
        assert rep.continuation_path == ()
        assert np.array_equal(rep.x, seed_unknowns(spec.spectrum, spec.lead))
        assert rep.residual == np.inf
        assert re.fullmatch(r"NoConvergence at tau=0\.015625: full step did not lower the residual .*",
                            rep.failure)

    def test_a_shift_ratio_beyond_every_step_makes_one_corrector_at_the_floor(self):
        # rho = 5e5 > 0.5 * 64^2: the first step is 1/64, from the bare seed,
        # and its failure ends the solve with the text of the ladder it replaces
        spec = complex_pair_spec()
        assert solver._seed_series(spec)[1] == pytest.approx(5e5, rel=1e-12)
        rep = continuation_solve(spec)
        assert [c.tau for c in rep.correctors] == [1 / 64]
        assert rep.failure == "NoConvergence at tau=0.015625: full step did not lower the residual 7.72 (iteration 1)"

    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec"])
    def test_bundled_problems_take_at_most_five_newton_solves(self, name, request):
        # and keep the path (0.5, 1)
        spec = request.getfixturevalue(name)
        rep = continuation_solve(spec)
        taus = [c.tau for c in rep.correctors]
        assert rep.converged and rep.continuation_path == (0.5, 1.0)
        assert len(taus) <= 5

    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec", "stalling"])
    def test_correctors_below_tau_one_stop_at_the_looser_tolerance(self, name, request):
        spec = stalling_spec() if name == "stalling" else request.getfixturevalue(name)
        loose = solver.CORRECTOR_TOL_REL * spec.spectrum.scale
        full = spec.controls.resolved_tol(spec.spectrum)
        rep = continuation_solve(spec)
        converged = [(c.tau, [r.residual for r in c.iterations]) for c in rep.correctors if c.converged]
        below = [residuals for tau, residuals in converged if tau < 1.0]
        assert below
        # each stopped at its first iterate within the looser tolerance
        assert all(r[-1] <= loose and all(v > loose for v in r[:-1]) for r in below)
        assert any(r[-1] > full for r in below)
        if rep.converged:
            assert converged[-1][0] == 1.0 and rep.residual <= full
        else:
            assert rep.residual <= loose and rep.residual == below[-1][-1]

    def test_a_looser_newton_tol_applies_below_tau_one(self, path4_spec, monkeypatch):
        spec = quadratic_targets_spec(path4_spec.graphs, newton_tol=1e-3)
        assert 1e-3 > solver.CORRECTOR_TOL_REL * spec.spectrum.scale
        tols, newton = [], solver.newton_solve

        def recording(*args, **kwargs):
            tols.append((kwargs["tau"], kwargs["tol"]))
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", recording)
        assert continuation_solve(spec).converged
        assert {tol for tau, tol in tols if tau < 1.0} == {1e-3}
        assert {tol for tau, tol in tols if tau == 1.0} == {None}

    def test_failing_problem_stays_within_the_documented_budget(self, monkeypatch):
        calls = count_calls(monkeypatch, solver, "jacobian_x")
        bare_seed_ladder(monkeypatch)
        spec = complex_pair_spec()
        rep = continuation_solve(spec)
        assert not rep.converged
        taus = [c.tau for c in rep.correctors]
        M = solver.MAX_CONTINUATION_STEPS
        log2_m = int(np.log2(M))
        # continuation_solve's docstring: at most 2M - 1 + log2(M) solves,
        # log2(M) + 1 - j when no step converges from a first step of 2^-j
        # (j = 0 here)
        assert len(taus) <= 2 * M - 1 + log2_m
        assert len(taus) == log2_m + 1
        assert min(taus) == 1.0 / M
        # no corrector converged, so no tangent: one Jacobian per trial
        assert calls["jacobian_x"] == sum(c.trials for c in rep.correctors)
        # continuation_solve's docstring: every corrector within controls.max_iter
        assert all(c.trials <= spec.controls.max_iter for c in rep.correctors)

    @pytest.mark.parametrize("spec, newton_budget, failure", [
        # no step converges: at most log2(M) + 1 Newton solves (one here,
        # whose first step is the floor 1/M, from the bare seed)
        (complex_pair_spec(), int(np.log2(solver.MAX_CONTINUATION_STEPS)) + 1,
         "full step did not lower the residual"),
        # five tau steps converge, then a corrector's first step is longer
        # than its predictor's displacement: 2M - 1 + log2(M)
        (stalling_spec(),
         2 * solver.MAX_CONTINUATION_STEPS - 1 + int(np.log2(solver.MAX_CONTINUATION_STEPS)),
         "longer than the predictor displacement"),
    ], ids=["complex_pair", "stalling"])
    def test_spectral_map_calls_stay_within_the_documented_budget(self, spec, newton_budget, failure, monkeypatch):
        M = solver.MAX_CONTINUATION_STEPS

        def total_budget(max_iter):
            # one more for a direct corrector that replaces the series' vectors
            return (2 * M - 1 + int(np.log2(M))) * (1 + max_iter) + 1

        # continuation_solve's docstring: 133 * 51 + 1 = 6,784 with the default controls
        assert total_budget(SolverControls().max_iter) == 6_784

        calls = count_calls(monkeypatch, solver, "jacobian_x", "spectral_map")
        rep = continuation_solve(spec)
        assert not rep.converged and failure in rep.failure
        correctors, max_iter = rep.correctors, spec.controls.max_iter
        ended = [c.ended for c in correctors]
        assert "trial" in ended
        # correctors ended at a step, before their trial: some in the stalling solve, none in the complex pair's
        assert ("step" in ended) == (failure != "full step did not lower the residual")
        # per corrector, the start (whether its eigensolve succeeded or not) and the trials
        assert sum(1 + c.trials for c in correctors) == calls["spectral_map"] <= newton_budget * (1 + max_iter)
        assert newton_budget * (1 + max_iter) <= total_budget(max_iter)
        assert all(c.trials <= max_iter for c in correctors) and len(correctors) <= newton_budget
        # one Jacobian per accepted or rejected step (a trial), one per
        # corrector ended at a step, and one per tangent: after every
        # converged corrector, all below tau = 1 here
        trials = sum(c.trials for c in correctors)
        assert calls["jacobian_x"] == trials + ended.count("step") + ended.count("converged")

    def test_refused_steps_counts_the_step_tests_not_the_budget(self):
        # scripts/eigensolve_counts.py's refused steps: the stalling solve
        # ends three correctors at a step refused for its length.  Under
        # max_iter = 1 most correctors reach the budget instead, also with
        # NoConvergence and no trial, and only one step is refused
        spec = stalling_spec()
        assert EIGENSOLVE_COUNTS.refused_steps(continuation_solve(spec).correctors) == 3
        correctors = continuation_solve(dataclasses.replace(spec, controls=SolverControls(max_iter=1))).correctors
        assert [c.ended for c in correctors].count("budget") == 14
        assert EIGENSOLVE_COUNTS.refused_steps(correctors) == 1

    @pytest.mark.parametrize("k, epsilon, kind", [(2, 1e10, "NearDegenerate"), (1, 1e200, "LinAlgError")],
                             ids=["k2", "k1"])
    def test_an_overflowing_companion_fails_the_solve(self, k, epsilon, kind):
        # over a leading 1e-300 the trials' companion (at k = 1 the pencil
        # matrix) overflows and LAPACK refuses it: a failed trial or
        # corrector, not a LinAlgError escaping the solve
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=np.arange(1.0, 2 * k + 1), n=2, k=k),
            lead=LeadingDiagonal(alpha_k=np.array([1e-300, 1.0])),
            graphs=(Graph(2, ((1, 2),)),) * k,
            epsilon=epsilon,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = continuation_solve(spec)
        assert not report.converged and report.continuation_path == () and report.residual == np.inf
        assert report.failure.startswith(f"{kind} at tau=0.015625: ")

    def test_degenerate_denominator_in_a_corrector_halves_the_step(self, monkeypatch):
        jacobian = solver.jacobian_x
        raised = []

        def degenerate_once(*args, **kwargs):
            if not raised:
                raised.append(True)
                raise DegenerateDenominator("injected")
            return jacobian(*args, **kwargs)

        monkeypatch.setattr(solver, "jacobian_x", degenerate_once)
        rng = np.random.default_rng(41)
        rep = continuation_solve(make_spec(rng, 4, 2, epsilon=0.1))
        assert raised and rep.converged
        assert rep.continuation_path == (0.5, 1.0)
        # the first corrector ended at its first step, after its start
        first = rep.correctors[0]
        assert first.kind is DegenerateDenominator and first.ended == "step" and len(first.iterations) == 1


def accepted(*step_norms):
    """A converged corrector's iterates: the start, then one accepted step of
    each norm."""
    return tuple(solver.IterationRecord(i, 1.0, norm) for i, norm in enumerate((0.0, *step_norms)))


class TestNextStep:
    """solver._next_step, the step in tau after a converged corrector.  The
    expected values are written with the literals 0.05, 0.5, 2 and 1/64, not
    the module's constants, so that changing one of those fails a test."""

    @pytest.mark.parametrize("theta, factor", [
        (0.08, math.sqrt(0.05 / 0.08)),  # slower than the target rate: shrink
        (0.02, math.sqrt(0.05 / 0.02)),  # faster: grow
        (0.05, 1.0),  # at the target: keep
    ], ids=["above", "below", "at"])
    def test_the_factor_is_the_root_of_the_target_over_theta(self, theta, factor):
        assert solver._next_step(0.25, 0.25, accepted(1.0, theta)) == pytest.approx(0.25 * factor, rel=1e-15)

    def test_theta_reads_the_first_two_steps_only(self):
        assert solver._next_step(0.25, 0.25, accepted(2.0, 0.16, 5.0)) == pytest.approx(
            0.25 * math.sqrt(0.05 / 0.08), rel=1e-15)

    @pytest.mark.parametrize("theta, factor", [(0.9, 0.5), (0.001, 2.0)], ids=["lower", "upper"])
    def test_the_factor_is_clipped(self, theta, factor):
        assert solver._next_step(0.25, 0.25, accepted(1.0, theta)) == 0.25 * factor

    @pytest.mark.parametrize("iterations", [accepted(), accepted(0.3), accepted(0.3, 0.0)],
                             ids=["no-step", "one-step", "theta-zero"])
    def test_no_contraction_rate_doubles_the_step(self, iterations):
        assert solver._next_step(0.125, 0.25, iterations) == 0.25

    def test_a_shrinking_step_is_floored_at_one_over_m(self):
        assert solver._next_step(1 / 64, 0.5, accepted(1.0, 0.9)) == 1 / 64

    def test_the_step_is_clipped_to_one_minus_tau(self):
        assert solver._next_step(0.25, 0.9, accepted(1.0, 0.02)) == 1.0 - 0.9

    def test_the_clip_to_one_minus_tau_overrides_the_floor(self):
        assert solver._next_step(1 / 64, 1.0 - 2.0 ** -7, accepted(1.0, 0.9)) == 2.0 ** -7

    @pytest.mark.parametrize("fold, taus", [
        # never fails below tau = 1: the step halves after each success down
        # to the floor 1/M, whose step lands on 1
        (1.0, [1.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 1.0]),
        # fails from tau = 0.7 on: halving after failures and after successes
        (0.7, [1.0, 0.5, 0.75, 0.625, 0.6875, 0.71875, 0.703125]),
    ], ids=["no-fold", "fold"])
    def test_a_step_that_shrinks_after_every_success_stays_within_the_budget(self, fold, taus, monkeypatch):
        # every corrector below the fold converges with theta = 1, twenty
        # times the target, so the factor clips to 1/2 after every success.
        # The loop may run ten times the budget: only the step rule ends it
        slow, M = accepted(1.0, 1.0), solver.MAX_CONTINUATION_STEPS

        def stub_newton_solve(spec, x0, tau, tol, displacement, rows):
            if tau >= fold:
                return x0, None, solver.Corrector(tau, slow[:1], "trial", NoConvergence, "stub")
            return x0, None, solver.Corrector(tau, slow, "converged")

        monkeypatch.setattr(solver, "newton_solve", stub_newton_solve)
        monkeypatch.setattr(solver, "_tangent", lambda spec, decomp: np.zeros(spec.n * spec.k))
        monkeypatch.setattr(solver, "_NEWTON_SOLVE_BUDGET", 10 * solver._NEWTON_SOLVE_BUDGET)
        # rho = 0.022 <= SEED_SHIFT_MAX: the first step is 1
        rep = continuation_solve(make_spec(np.random.default_rng(41), 4, 2, epsilon=0.1))
        assert [c.tau for c in rep.correctors] == taus
        assert not rep.converged
        path = (0.0, *rep.continuation_path)
        assert all(b - a >= 1 / M for a, b in zip(path, path[1:]))
        assert len(rep.correctors) <= 2 * M - 1 + int(np.log2(M))


class TestFirstStep:
    """solver._first_step, the first step in tau from the seed.  The
    expected steps are written with literals (the gate 0.5 and the floor
    1/64), not the module's constants, so that changing one of those fails
    a test."""

    @pytest.mark.parametrize("rho, step", [
        (0.0, 1.0),
        (0.5, 1.0),  # 1 * 0.5 <= 0.5: the boundary is inside the gate
        (1.3203125, 0.5),  # path4 and linked4
        (2.0, 0.5),
        (2.0000001, 0.25),
        (137.0, 1 / 32),  # corpus3[86]
        (2048.0, 1 / 64),  # 2048 / 64^2 = 0.5: the last rho inside the gate
        (1e6, 1 / 64),  # beyond the gate at every step: the floor
        (math.inf, 1 / 64),  # no predictor (_seed_series's rho = inf)
    ], ids=["zero", "boundary", "path4", "two", "just-above-two", "corpus3-86", "floor-boundary", "floor", "inf"])
    def test_the_longest_power_of_two_step_inside_the_gate(self, rho, step):
        assert solver._first_step(rho) == step


class TestSeriesRules:
    """_series_cap and _series_state: how far the seed series goes."""

    @pytest.mark.parametrize("n, k, cap", [
        (2, 1, 4), (6, 1, 4), (5, 2, 4), (6, 2, 4), (4, 3, 4),  # B = 3 to 3.9: the series stops at order 4
        (6, 3, 9), (20, 1, 9), (40, 1, 14), (20, 2, 14), (80, 2, 14)])
    def test_the_cap_is_the_orders_the_saved_eigensolves_pay_for(self, n, k, cap):
        C = solver.SERIES_ORDER_COST
        budget = (3 * C + 25 * (n * k) ** 3) / (C + 2 * k * k * n ** 3)
        assert cap == (min(solver.SERIES_ORDER_MAX, 4 + int(budget)) if budget >= 4 else 4)
        assert solver._series_cap(n, k) == cap

    def test_the_cap_grows_with_the_problem(self):
        for k in (1, 2, 3):
            caps = [solver._series_cap(n, k) for n in range(1, 100)]
            assert caps == sorted(caps) and caps[0] == 4 and caps[-1] == solver.SERIES_ORDER_MAX

    @pytest.mark.parametrize("scale, converged", [(1.0, True), (np.nextafter(1.0, 0.0), False)],
                             ids=["equal", "below"])
    def test_converged_when_four_times_the_next_pair_is_within_tol(self, scale, converged):
        # a_4 = 1e-3, r = a_4 / a_2 = 1e-3: the estimate 4 a_4 r is 4e-6
        state = solver._series_state([0.0, 1.0, 1e-4, 1e-3], 4, 4e-6 * scale, 14)
        assert state[0] is converged and state[1] is not converged

    def test_terms_of_zero_are_converged(self):
        assert solver._series_state([0.0, 0.0, 0.0, 0.0], 4, 1e-12, 14) == (True, False)

    @pytest.mark.parametrize("cap, extends", [(14, True), (12, False)])
    def test_extends_while_the_pairs_carried_to_the_cap_reach_tol(self, cap, extends):
        # r = 1e-2 a pair from a_4 = 1e-2: 4 a_4 r^(j+1) is 4e-14 at cap 14
        # (j = 5) and 4e-12 at cap 12 (j = 4), against tol 1e-12
        assert solver._series_state([0.0, 1.0, 0.0, 1e-2], 4, 1e-12, cap) == (False, extends)

    def test_stops_short_of_tol_when_the_pairs_shrink_too_slowly_stop_shrinking_or_reach_the_cap(self):
        # a_5 = 2e-2 against a_3 = 1 shrinks, but not to 1e-30 by order 14;
        # a_6 = 2e-2 against a_4 = 1e-2 does not shrink; order 6 is the cap
        assert solver._series_state([0.0, 1.0, 0.0, 1e-2, 2e-2], 5, 1e-30, 14) == (False, False)
        assert solver._series_state([0.0, 1.0, 0.0, 1e-2, 1e-9, 2e-2], 6, 1e-14, 14) == (False, False)
        assert solver._series_state([0.0, 1.0, 0.0, 1e-4, 0.0, 1e-8], 6, 1e-30, 6) == (False, False)

    def test_a_pair_after_a_pair_of_zeros_stops(self):
        # no decay ratio to read (a_2 = 0): the series stops, dividing by nothing
        assert solver._series_state([0.0, 0.0, 0.0, 1e-3], 4, 1e-12, 14) == (False, False)

    def test_odd_terms_of_zero_are_read_in_pairs(self):
        # a path's series: the tau^5 term is 0, and the pair (c_4, c_5) is read as a_5 = c_4's shift
        assert solver._series_state([0.0, 1.0, 0.0, 1e-3, 0.0], 5, 4e-6, 14) == (True, False)


class TestCorrectorEndings:
    """Endings that no bundled or random problem reaches, forced through
    the Jacobian."""

    @pytest.mark.parametrize("J, detail", [
        (lambda m: np.zeros((m, m)), "Newton linear solve failed at iteration 1: "),
        (lambda m: 1e-320 * np.eye(m), "Newton step non-finite at iteration 1"),
    ], ids=["zero", "non-finite-step"])
    def test_a_singular_jacobian_fails_every_corrector_and_continuation_halves(self, J, detail, monkeypatch):
        # every start is real and none within tolerance, so each corrector
        # ends at its first step and none converges
        spec = complex_pair_spec()
        bare_seed_ladder(monkeypatch)
        monkeypatch.setattr(solver, "jacobian_x", lambda decomp: J(len(decomp)))
        with np.errstate(all="ignore"):
            rep = continuation_solve(spec)
        M = solver.MAX_CONTINUATION_STEPS
        assert [c.tau for c in rep.correctors] == [2.0 ** -j for j in range(int(np.log2(M)) + 1)]
        for c in rep.correctors:
            assert c.kind is SingularJacobian and c.detail.startswith(detail)
            assert c.ended == "step" and len(c.iterations) == 1 and c.trials == 0
        assert EIGENSOLVE_COUNTS.refused_steps(rep.correctors) == 0  # ended at a step, but not refused
        assert not rep.converged and rep.continuation_path == ()
        assert rep.failure == f"SingularJacobian at tau=0.015625: {rep.correctors[-1].detail}"

    def test_a_failed_tangent_starts_the_next_corrector_at_the_last_converged_x(self, path4_spec, monkeypatch):
        jacobian, tangents = solver.jacobian_x, []

        def degenerate_tangent(decomp, direction=None):
            if direction is None:
                return jacobian(decomp)
            tangents.append(1)
            raise DegenerateDenominator("injected")

        monkeypatch.setattr(solver, "jacobian_x", degenerate_tangent)
        starts = record_start_points(monkeypatch)
        rep = continuation_solve(path4_spec)
        assert tangents
        first = next(i for i, c in enumerate(rep.correctors) if c.converged)
        assert rep.correctors[first].tau < 1.0
        loose = solver.CORRECTOR_TOL_REL * path4_spec.spectrum.scale
        x, _, _ = solved(path4_spec, x0=starts[first], tau=rep.correctors[first].tau, tol=loose)
        # the zero predictor: the next start is the converged point itself
        assert starts[first + 1].tobytes() == x.tobytes()


def reference_structure_detail(P, spec):
    """The verdict from the loop reference edge list, one coefficient at a time."""
    return tuple(graph_edges(P.coeffs[s]) == spec.graphs[s].edges for s in range(spec.k))


class TestStructureVerdict:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_graph_of_matrix_on_random_symmetric_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        spec = make_spec(rng, n, k, epsilon=0.5)
        verdicts = set()
        for _ in range(40):
            coeffs = []
            for s in range(k):
                if rng.random() < 0.5:  # the graph's own pattern, one entry pair possibly flipped
                    A = assemble(rng.uniform(-1, 1, n * k), spec).coeffs[s].copy()
                    i, j = rng.integers(0, n, 2)
                    if rng.random() < 0.5:
                        A[i, j] = A[j, i] = 0.0 if A[i, j] else 1.0
                else:  # random symmetric with exact zeros
                    B = rng.standard_normal((n, n))
                    A = np.where(rng.random((n, n)) < 0.5, 0.0, B)
                    A = np.triu(A) + np.triu(A, 1).T
                coeffs.append(A)
            P = matpoly.MatrixPolynomial((*coeffs, np.diag(spec.lead.alpha_k)))
            detail, leading_ok = solver._structure_verdict(P, spec)
            assert detail == reference_structure_detail(P, spec) and leading_ok
            verdicts.update(detail)
        assert verdicts == {True, False}

    def test_zero_epsilon_seed_fails_structure(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        rep = continuation_solve(spec)
        assert rep.converged and not rep.structure_ok
        assert rep.structure_detail == reference_structure_detail(rep.polynomial, spec) == (False, False)

    def test_verify_sees_a_missing_edge(self, path4_spec):
        gold = golden_path4_polynomial()
        A0 = gold.coeffs[0].copy()
        A0[0, 1] = A0[1, 0] = 0.0
        P = matpoly.MatrixPolynomial((A0, *gold.coeffs[1:]))
        report = verify(P, path4_spec, value_tol=1.0)
        assert not report.passed and report.failure == "structure mismatch"
        assert report.structure_detail == reference_structure_detail(P, path4_spec) == (False, True)


class TestVerify:
    def test_golden_path4(self, path4_spec):
        report = verify(golden_path4_polynomial(), path4_spec, value_tol=5e-9)
        assert report.passed
        assert report.residual <= 5e-9

    def test_golden_linked4(self, linked4_spec):
        report = verify(golden_linked4_polynomial(), linked4_spec, value_tol=5e-9)
        assert report.passed

    def test_seed_against_empty_graphs(self):
        spec = quadratic_targets_spec((Graph(4), Graph(4)), epsilon=0.5)
        report = verify(spec.seed(), spec, value_tol=1e-8)
        assert report.passed

    def test_seed_against_path_graphs_fails_structure(self, path4_spec):
        report = verify(path4_spec.seed(), path4_spec, value_tol=1e-8)
        assert not report.passed
        assert not report.structure_ok
        assert report.residual <= 1e-8  # spectrum is fine, structure is not

    def test_prescribed_offdiagonal_values_are_not_checked(self, path4_spec):
        # verify checks each coefficient's graph and the leading
        # coefficient: a solution at tau = 1/4, whose off-diagonals are a
        # quarter of the prescribed ones, passes against the full problem
        x, _, corrector = newton_solve(path4_spec, tau=0.25)
        assert corrector.converged
        P = assemble(x, path4_spec, 0.25)
        assert P.coeffs[0][0, 1] == 0.25 * path4_spec.offdiag_values[0][0] != path4_spec.offdiag_values[0][0]
        report = verify(P, path4_spec)
        assert report.passed and report.residual <= 1e-12

    def test_a_bad_leading_coefficient(self, path4_spec):
        # one that is not diagonal and positive raises from the eigensolve;
        # a positive diagonal that is not the problem's fails the check
        gold = golden_path4_polynomial()

        def with_lead(A):
            return matpoly.MatrixPolynomial((*gold.coeffs[:-1], A))

        tridiagonal = np.eye(4) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))
        with pytest.raises(LeadingCoefficientError, match="leading coefficient must be diagonal"):
            verify(with_lead(tridiagonal), path4_spec)
        with pytest.raises(LeadingCoefficientError, match="leading diagonal must be strictly positive"):
            verify(with_lead(np.diag([1.0, -1.0, 1.0, 1.0])), path4_spec)
        report = verify(with_lead(np.diag([2.0, 1.0, 1.0, 1.0])), path4_spec)
        assert not report.passed and not report.leading_ok and not report.structure_ok

    def test_failure_names_every_failing_check(self, path4_spec):
        # path4 solved at tau = 1/4 has the right graphs; with A_k = diag(2,
        # 1, 1, 1) its spectrum leaves the real line as well
        x, _, corrector = newton_solve(path4_spec, tau=0.25)
        assert corrector.converged
        P = assemble(x, path4_spec, 0.25)
        report = verify(matpoly.MatrixPolynomial((*P.coeffs[:-1], np.diag([2.0, 1.0, 1.0, 1.0]))), path4_spec)
        assert not report.passed and report.structure_detail == (True, True) and not report.leading_ok
        spectrum, leading = report.failure.split("; ")
        assert spectrum.startswith("NonRealSpectrum: ") and leading == "leading coefficient mismatch"
        # and with a missing edge, all three checks, in order
        A0 = P.coeffs[0].copy()
        A0[0, 1] = A0[1, 0] = 0.0
        report = verify(matpoly.MatrixPolynomial((A0, P.coeffs[1], np.diag([2.0, 1.0, 1.0, 1.0]))), path4_spec)
        spectrum, *rest = report.failure.split("; ")
        assert spectrum.startswith("NonRealSpectrum: ") and rest == ["structure mismatch", "leading coefficient mismatch"]
        assert verify(P, path4_spec).failure is None

    @pytest.mark.parametrize("value_tol", ["1", True, 1j], ids=["str", "bool", "complex"])
    def test_tolerance_of_the_wrong_type_rejected(self, path4_spec, value_tol):
        with pytest.raises(InvariantViolation, match="value_tol must be a real number"):
            verify(golden_path4_polynomial(), path4_spec, value_tol=value_tol)

    def test_none_is_the_problems_own_tolerance(self, path4_spec):
        # the default, None, is max(1e-8, resolved_tol): 1e-8 for path4,
        # never tighter than a looser newton_tol; an explicit value is absolute
        gold = golden_path4_polynomial()
        P = matpoly.MatrixPolynomial((gold.coeffs[0] + 1e-6 * np.eye(4), *gold.coeffs[1:]))
        loose = dataclasses.replace(path4_spec, controls=SolverControls(newton_tol=1e-3))
        assert verify(P, path4_spec, value_tol=None).failure == verify(P, path4_spec).failure
        assert verify(P, path4_spec).failure.endswith("exceeds tolerance 1e-08")
        assert verify(P, loose).passed
        assert verify(P, loose, value_tol=1e-8).failure.endswith("exceeds tolerance 1e-08")


class TestProblemSpecInvariants:
    def test_wrong_graph_count(self):
        with pytest.raises(InvariantViolation):
            ProblemSpec(
                spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
                lead=LeadingDiagonal(alpha_k=np.ones(4)),
                graphs=(Graph(4, PATH_EDGES),),
            )

    def test_zero_override_rejected(self):
        with pytest.raises(InvariantViolation):
            ProblemSpec(
                spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
                lead=LeadingDiagonal(alpha_k=np.ones(4)),
                graphs=(Graph(4, PATH_EDGES), Graph(4, H_EDGES)),
                offdiag_values=(np.array([0.5, 0.0, 0.5]), np.array([0.5, 0.5])),
            )

    def test_none_entry_is_filled_with_epsilon(self):
        graphs = (Graph(4, PATH_EDGES), Graph(4, H_EDGES))
        y = np.array([0.5, -0.25])
        for epsilon in (0.0, 0.3):
            spec = quadratic_targets_spec(graphs, epsilon=epsilon)
            mixed = ProblemSpec(spec.spectrum, spec.lead, graphs, epsilon, offdiag_values=(None, y))
            assert mixed.offdiag_values[0].tobytes() == spec.offdiag_values[0].tobytes()
            assert np.array_equal(mixed.offdiag_values[1], y)

    def test_wrong_offdiag_count(self):
        with pytest.raises(InvariantViolation, match="need 2 off-diagonal vectors, got 1"):
            ProblemSpec(
                spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
                lead=LeadingDiagonal(alpha_k=np.ones(4)),
                graphs=(Graph(4, PATH_EDGES),) * 2,
                offdiag_values=(np.full(3, 0.5),),
            )

    @pytest.mark.parametrize("controls", [
        {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": "5"}, {"max_iter": np.bool_(True)},
        {"newton_tol": True}, {"newton_tol": "1e-8"}, {"newton_tol": 1j},
    ], ids=["max_iter-float", "max_iter-bool", "max_iter-str", "max_iter-numpy-bool",
            "newton_tol-bool", "newton_tol-str", "newton_tol-complex"])
    def test_controls_of_the_wrong_type_rejected(self, controls):
        # at the parent max_iter=2.5 passed and crashed newton_solve, and True was taken as 1
        with pytest.raises(InvariantViolation, match="must be an integer|must be a real number"):
            SolverControls(**controls)

    @pytest.mark.parametrize("epsilon", ["0.5", None, True, 1j], ids=["str", "none", "bool", "complex"])
    def test_epsilon_of_the_wrong_type_rejected(self, path4_spec, epsilon):
        with pytest.raises(InvariantViolation, match="epsilon must be a real number"):
            ProblemSpec(path4_spec.spectrum, path4_spec.lead, path4_spec.graphs, epsilon=epsilon)

    @pytest.mark.parametrize("field, value", [
        ("spectrum", None), ("lead", np.ones(4)), ("graphs", (None, None)), ("graphs", None),
        ("controls", {"max_iter": 3}),
    ], ids=["spectrum-none", "lead-array", "graphs-of-none", "graphs-none", "controls-dict"])
    def test_components_of_the_wrong_type_rejected(self, path4_spec, field, value):
        # unchecked, each raised AttributeError or TypeError
        parts = {"spectrum": path4_spec.spectrum, "lead": path4_spec.lead, "graphs": path4_spec.graphs}
        with pytest.raises(InvariantViolation, match=f"^{field} must be a"):
            ProblemSpec(**{**parts, field: value})

    def test_the_spec_keeps_read_only_copies_of_the_callers_arrays(self):
        # a spec holding the caller's arrays would move values, alpha_k and
        # offdiag_values with them, but not the cached sorted values, scale
        # or ramp_row
        values, alpha, y0, y1 = TARGETS.copy(), np.ones(4), np.full(4, 0.5), np.full(2, 0.5)
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=values, n=4, k=2),
            lead=LeadingDiagonal(alpha_k=alpha),
            graphs=(Graph(4, G_EDGES), Graph(4, H_EDGES)),
            offdiag_values=(y0, y1),
        )
        config, report = spec_to_config(spec), continuation_solve(spec)
        for a in (values, alpha, y0, y1):
            a *= 3.0
        assert spec_to_config(spec) == config
        again = continuation_solve(spec)
        assert again.converged and again.x.tobytes() == report.x.tobytes()
        for a in (spec.spectrum.values, spec.lead.alpha_k, *spec.offdiag_values):
            assert a.dtype == np.float64 and not a.flags.writeable

    def test_controls_accept_numpy_numbers(self, path4_spec):
        controls = SolverControls(newton_tol=np.float64(1e-10), max_iter=np.int64(7))
        spec = ProblemSpec(path4_spec.spectrum, path4_spec.lead, path4_spec.graphs, controls=controls)
        assert continuation_solve(spec).converged

    def test_graph_vertex_mismatch(self):
        with pytest.raises(InvariantViolation):
            ProblemSpec(
                spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
                lead=LeadingDiagonal(alpha_k=np.ones(4)),
                graphs=(Graph(3), Graph(4)),
            )


@pytest.mark.parametrize("build", [golden_path4_polynomial, golden_linked4_polynomial, sparse_quadratic_80])
def test_jacobian_matches_the_unit_vector_definition(build):
    # jacobian_x reads the eigenvector rows at the eigensolver's scale and
    # sign; the reference is its unit-vector form: -lambda^s u_r^2 /
    # (u^T P'(lambda) u) for unit proper vectors u, with [A_1 ... A_k] the
    # polynomial's own coefficients and the forms summed by Horner
    P = build()
    decomp = proper_values(P)
    lam, U = decomp.values, unit_vectors(decomp)
    nk, n = U.shape
    k = nk // n
    upper = np.hstack(P.coeffs[1:])
    forms = np.arange(1, k + 1) * np.sum((U @ upper).reshape(nk, k, n) * U[:, None, :], axis=2)
    den = forms[:, -1]
    for j in range(k - 2, -1, -1):
        den = den * lam + forms[:, j]
    powers = lam[:, None] ** np.arange(k)
    want = (-powers[:, :, None] * (U ** 2)[:, None, :] / den[:, None, None]).reshape(nk, nk)
    assert np.max(np.abs(jacobian_x(decomp) - want)) <= 1e-13 * np.max(np.abs(want))


def test_k2_solve_makes_no_stacked_solve(path4_spec, monkeypatch):
    # proper vectors come from the companion eigenvectors: the only linear
    # solves are the n k x n k Newton and tangent systems, never one P(lambda_q)
    # per value
    shapes, kernel = [], solver.lapack

    def recording(kind, *operands):
        if kind == "solve":
            shapes.append(np.shape(operands[0]))
        return kernel(kind, *operands)

    monkeypatch.setattr(solver, "lapack", recording)
    assert continuation_solve(path4_spec).converged
    assert shapes and all(len(shape) == 2 for shape in shapes)


def record_start_points(monkeypatch):
    """The x0 of every newton_solve that continuation_solve makes."""
    starts, newton = [], solver.newton_solve

    def recording(*args, **kwargs):
        starts.append(np.array(kwargs["x0"], copy=True))
        return newton(*args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", recording)
    return starts


def near_resonant_spec():
    """Targets -1 and -1.0001 sit on different diagonal entries joined by an
    edge of G_0: the seed predictor's shift dwarfs their gap."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=np.array([-1.0, -5.0, -1.0001, 3.0]), n=2, k=2),
        lead=LeadingDiagonal(alpha_k=np.ones(2)),
        graphs=(Graph(2, ((1, 2),)), Graph(2)),
        epsilon=0.5,
    )


TRIANGLE_EDGES = ((1, 2), (1, 3), (2, 3))


def triangle_spec(k, epsilon=0.3):
    """Three entries on a triangle, an odd cycle, in every coefficient: the
    seed series' tau^3 term is not zero."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(np.random.default_rng(7), 3, k), n=3, k=k),
        lead=LeadingDiagonal(alpha_k=np.array([0.5, 1.0, 2.0])),
        graphs=(Graph(3, TRIANGLE_EDGES),) * k,
        epsilon=epsilon,
        controls=SolverControls(newton_tol=1e-12),
    )


def reference_series(spec):
    """The seed series [c_2, c_3, c_4] and rho, one entry and target at a
    time from the assembled seed and ramp: u_j = D_rj / p_j, the tau^3 value
    -sum_{j, l} u_j D_jl u_l, the tau^4 value sum_l (sum_j D_lj u_j)^2 / p_l
    - sum_j u_j^2 delta2_j, and each interpolant from a Vandermonde solve."""
    n, k, seed, targets = spec.n, spec.k, spec.seed(), spec.spectrum.values
    ramp = matpoly.MatrixPolynomial(assemble(np.zeros(n * k), spec).coeffs[:k])
    c, rho = np.empty((3, n * k)), 0.0
    for order in range(3):
        for r in range(n):
            roots = targets[r * k:(r + 1) * k]
            h = np.zeros(k)
            for i, lam in enumerate(roots):
                D, S = matpoly.evaluate(ramp, lam), matpoly.evaluate(seed, lam)
                others = [j for j in range(n) if j != r]
                u = {j: D[r, j] / S[j, j] for j in others}
                if order == 0:
                    h[i] = sum(D[r, j] * u[j] for j in others)
                    slope = matpoly.evaluate(derivative(seed), lam)[r, r]
                    gap = np.min(np.abs(targets[targets != lam] - lam))
                    rho = max(rho, abs(h[i] / slope) / gap)
                elif order == 1:
                    h[i] = -sum(u[j] * D[j, l] * u[l] for j in others for l in others)
                else:
                    for l in others:
                        h[i] += sum(D[l, j] * u[j] for j in others) ** 2 / S[l, l]
                    for j in others:
                        h[i] -= u[j] ** 2 * sum(c[0, s * n + j] * lam ** s for s in range(k))
            c[order, r::n] = np.linalg.solve(np.vander(roots, k, increasing=True), h)
    return c, rho


def reference_recursion(spec, order):
    """[c_2 ... c_order] of the seed series by the recursion that
    _seed_series's docstring states, one entry and target at a time from
    the assembled seed and ramp: y_0 = d / p, y_i = -(D y_(i-1) + sum_j
    Delta_j o y_(i-j)) / p with entry r zero, v_m = d^T y_(m-2), Delta_j,l
    c_j's interpolant on entry l at the target, and each interpolant from a
    Vandermonde solve."""
    n, k, seed, targets = spec.n, spec.k, spec.seed(), spec.spectrum.values
    ramp = matpoly.MatrixPolynomial(assemble(np.zeros(n * k), spec).coeffs[:k])
    c, ys = np.zeros((order - 1, n * k)), {}
    for m in range(2, order + 1):
        for r in range(n):
            roots = targets[r * k:(r + 1) * k]
            h = np.zeros(k)
            for i, lam in enumerate(roots):
                D, S = matpoly.evaluate(ramp, lam), matpoly.evaluate(seed, lam)
                p = np.diag(S).copy()
                p[r] = 1.0
                d, y = D[:, r], ys.setdefault((r, i), [])
                while len(y) <= m - 2:
                    z = d if not y else -(D @ y[-1] + sum(
                        sum(c[j - 2, s * n:(s + 1) * n] * lam ** s for s in range(k)) * y[len(y) - j]
                        for j in range(2, len(y) + 1)))
                    y_i = z / p
                    y_i[r] = 0.0
                    y.append(y_i)
                h[i] = d @ y[m - 2]
            c[m - 2, r::n] = np.linalg.solve(np.vander(roots, k, increasing=True), h)
    return c


def full_budget(monkeypatch):
    """Let the seed series go past order 4 on a problem of any size, as
    _series_cap lets it on a large one."""
    monkeypatch.setattr(solver, "_series_cap", lambda n, k: solver.SERIES_ORDER_MAX)


class TestSeedPredictor:
    @pytest.mark.parametrize("name", ["triangle1", "triangle2", "linked4_spec"])
    def test_error_is_fifth_order_or_better_in_tau(self, name, request):
        # graphs with a triangle, so the tau^3 term is not zero; at these tau
        # the error stays far above the corrector's tolerance, and the tau^2
        # predictor's error falls only 8-16x per halving
        if name.startswith("triangle"):
            spec = triangle_spec(int(name[-1]))
        else:
            spec = quadratic_targets_spec(request.getfixturevalue(name).graphs, newton_tol=1e-13)
        errors = []
        for tau in (0.16, 0.08, 0.04):
            predicted = series_start(spec, tau)
            x, _, _ = solved(spec, x0=predicted, tau=tau)
            errors.append(np.linalg.norm(x - predicted))
        # x(tau) - seed - tau^2 c_2 - tau^3 c_3 - tau^4 c_4 = O(tau^5): at
        # least 24x smaller per halving
        assert errors[0] >= 24 * errors[1] and errors[1] >= 24 * errors[2]

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_start_error_falls_as_orders_are_added(self, k, monkeypatch):
        # on a triangle every order is nonzero; given the budget, the series
        # goes past order 4, and every two orders it sums cut the direct
        # start's distance to the root at least tenfold: the order-4 series
        # fails the first assert
        full_budget(monkeypatch)
        spec = triangle_spec(k, epsilon=0.05)
        order = len(solver._seed_series(spec)[0]) + 1
        assert order >= 7
        x, _, _ = solved(spec, x0=series_start(spec, 1.0))
        errors = [np.linalg.norm(series_start(spec, 1.0, m) - x) for m in range(2, order + 1)]
        assert all(after <= before / 10 for before, after in zip(errors, errors[2:]))

    @pytest.mark.parametrize("k", [1, 2, 3, "triangle"])
    def test_matches_a_per_entry_reference(self, k):
        spec = triangle_spec(1) if k == "triangle" else make_spec(np.random.default_rng(11), 5, k, epsilon=0.4)
        c_ref, rho_ref = reference_series(spec)
        c, rho, _ = solver._seed_series(spec)
        assert c.shape[0] >= 3 and c.shape[1] == spec.n * spec.k
        for got, want in zip(c, c_ref):
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(c_ref)))
        assert rho == pytest.approx(rho_ref, rel=1e-10)
        # the tau^3 term is zero exactly on a graph without odd cycles (k = 1's is a tree)
        assert (np.max(np.abs(c_ref[1])) == 0.0) == (k == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_order_matches_the_recursion_by_entry(self, k, monkeypatch):
        # k = 3 runs the middle Horner block of _ramp_rows and the second
        # divided difference of _interpolate; its rho is 1.48 at epsilon
        # 0.05, above SEED_SHIFT_MAX, and at 0.005 its series reaches order 12
        full_budget(monkeypatch)
        spec = triangle_spec(k, epsilon=0.005 if k == 3 else 0.05)
        c = solver._seed_series(spec)[0]
        c_ref = reference_recursion(spec, len(c) + 1)
        assert len(c) >= 6
        for got, want in zip(c, c_ref):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))

    def test_a_sparse_sweep_like_series_matches_the_recursion_past_order_six(self):
        # the sweep's kind of instance at its own cap: sparse graphs, k = 3
        spec = weakly_coupled_spec(20, 3)
        c, _, rows = solver._seed_series(spec)
        c_ref = reference_recursion(spec, len(c) + 1)
        assert len(c) + 1 > 6 and rows is not None
        for got, want in zip(c, c_ref):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))

    def test_a_non_finite_series_is_the_bare_seed(self):
        # off-diagonals of 1e100: rho and the tau^2 terms (~1e200) are finite,
        # the tau^4 terms (~1e400) overflow
        c, rho, rows = solver._seed_series(triangle_spec(1, epsilon=1e100))
        assert c.tobytes() == np.zeros((3, 3)).tobytes() and rho == math.inf and rows is None

    def test_a_non_finite_term_past_order_four_ends_the_series_before_it(self, monkeypatch):
        # the third D y (that of y_3, for the tau^6 value) made non-finite:
        # the series ends at order 5, its terms and vectors as before
        spec = weakly_coupled_spec(20, 2, 7)
        full = solver._seed_series(spec)
        assert len(full[0]) + 1 >= 6
        ramp_rows, calls = solver._ramp_rows, []

        def overflowing(*args):
            calls.append(1)
            return ramp_rows(*args) * (math.inf if len(calls) == 3 else 1.0)

        monkeypatch.setattr(solver, "_ramp_rows", overflowing)
        c, rho, rows = solver._seed_series(spec)
        assert c.tobytes() == full[0][:4].tobytes() and rho == full[1]
        assert rows.shape == full[2].shape and np.isfinite(rows).all()

    def test_near_resonant_pair_starts_at_the_bare_seed(self, monkeypatch):
        spec = near_resonant_spec()
        rho = solver._seed_series(spec)[1]
        assert rho > solver.SEED_SHIFT_MAX
        starts = record_start_points(monkeypatch)
        continuation_solve(spec)
        seed = seed_unknowns(spec.spectrum, spec.lead)
        assert starts[0].tobytes() == seed.tobytes()

    @pytest.mark.parametrize("name", ["random", "triangle"])
    def test_small_shift_ratio_starts_at_seed_plus_the_series(self, name, monkeypatch):
        spec = triangle_spec(1) if name == "triangle" else make_spec(np.random.default_rng(41), 4, 2, epsilon=0.1)
        c, rho, _ = solver._seed_series(spec)
        assert rho <= solver.SEED_SHIFT_MAX
        # on the triangle each of c_2, c_3 and c_4 has a nonzero entry
        assert name == "random" or np.abs(c[:3]).max(axis=1).min() > 0.0
        starts = record_start_points(monkeypatch)
        continuation_solve(spec)
        assert starts[0].tobytes() == series_start(spec, 1.0).tobytes()

    def test_path4_starts_at_the_series_at_one_half(self, path4_spec, monkeypatch):
        # rho = 1.32: tau = 1 is beyond the gate, so the first step is 1/2,
        # whose corrector starts at seed + c_2 / 4 + c_3 / 8 + c_4 / 16, the
        # series of order 4 with no vectors, and converges
        c, rho, rows = solver._seed_series(path4_spec)
        assert 0.25 * rho <= solver.SEED_SHIFT_MAX < rho
        assert len(c) == 3 and rows is None
        starts = record_start_points(monkeypatch)
        rep = continuation_solve(path4_spec)
        assert rep.continuation_path == (0.5, 1.0)
        assert [c.tau for c in rep.correctors] == [0.5, 1.0]
        assert starts[0].tobytes() == series_start(path4_spec, 0.5).tobytes()


def test_continuation_solve_builds_each_offdiagonal_matrix_once(path4_spec, monkeypatch):
    # spec.ramp_row is built once; assemble scales it instead of rebuilding it
    calls = count_calls(monkeypatch, solver, "matrix_of_graph")
    assert continuation_solve(path4_spec).converged
    assert calls == {"matrix_of_graph": path4_spec.k}


def counting_assemble(monkeypatch):
    """The tau of every solver.assemble call."""
    taus, assemble_ = [], solver.assemble

    def counting(x, spec, tau=1.0):
        taus.append(tau)
        return assemble_(x, spec, tau)

    monkeypatch.setattr(solver, "assemble", counting)
    return taus


@pytest.mark.parametrize("name", ["path4_spec", "linked4_spec"])
def test_converged_newton_solve_assembles_no_polynomial(name, request, monkeypatch):
    spec = request.getfixturevalue(name)
    taus = counting_assemble(monkeypatch)
    _, _, iterations = solved(spec, x0=series_start(spec, 0.5), tau=0.5)
    assert len(iterations) > 2
    assert taus == []


@pytest.mark.parametrize("name", ["path4_spec", "linked4_spec", "complex_pair", "stalling"])
def test_continuation_solve_assembles_one_polynomial(name, request, monkeypatch):
    # one exit: the report's polynomial, at the last converged tau (0 when none did)
    if name == "complex_pair":
        spec = complex_pair_spec()
    elif name == "stalling":
        spec = stalling_spec()
    else:
        spec = request.getfixturevalue(name)
    taus = counting_assemble(monkeypatch)
    rep = continuation_solve(spec)
    assert rep.converged == (name not in ("complex_pair", "stalling"))
    if rep.converged:
        assert rep.continuation_path == (0.5, 1.0)
    assert taus == [rep.continuation_path[-1] if rep.continuation_path else 0.0]
    for got, want in zip(rep.polynomial.coeffs, assemble(rep.x, spec, taus[0]).coeffs):
        assert got.tobytes() == want.tobytes()


def test_tangent_reuses_the_accepted_decomposition(path4_spec, monkeypatch):
    x, decomp, _ = solved(path4_spec, x0=series_start(path4_spec, 0.5), tau=0.5)
    fresh = reference_spectral_map(x, path4_spec, 0.5)
    assert np.array_equal(solver._tangent(path4_spec, decomp), solver._tangent(path4_spec, fresh))

    calls = count_calls(monkeypatch, matpoly, "proper_values")
    count_calls(monkeypatch, solver, "proper_values", calls=calls)
    rep = continuation_solve(path4_spec)
    assert rep.converged and len(rep.continuation_path) > 1
    assert calls == {"proper_values": 0}


@pytest.mark.parametrize("name", ["path4_spec", "linked4_spec"])
def test_bundled_solve_counts(name, request, monkeypatch):
    # machine-independent work of one bundled solve, path (0.5, 1): 8
    # eigensolves, 6 Newton Jacobians and one tangent; each jacobian_x call,
    # the tangent's with its direction column included, computes the
    # denominators once
    spec = request.getfixturevalue(name)
    eigensolves = count_eigensolves(monkeypatch)
    calls = count_calls(monkeypatch, sensitivity, "_denominators")
    count_calls(monkeypatch, solver, "jacobian_x", "_tangent", calls=calls)
    rep = continuation_solve(spec)
    assert rep.converged and rep.continuation_path == (0.5, 1.0)
    assert dict(calls, eig=eigensolves["eig"]) == {"eig": 8, "_denominators": 7, "jacobian_x": 7, "_tangent": 1}
