import re
from dataclasses import replace

import numpy as np
import pytest

from structured_iep import (
    DegenerateDenominator,
    Graph,
    InvariantViolation,
    LeadingDiagonal,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    ProblemSpec,
    SolverControls,
    TargetSpectrum,
    assemble,
    continuation_solve,
    match_targets,
    matpoly,
    newton_solve,
    proper_values,
    seed_diagonals,
    spectral_map,
    solver,
    verify,
)

from conftest import (
    G_EDGES,
    H_EDGES,
    PATH_EDGES,
    TARGETS,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    quadratic_targets_spec,
    random_graph,
    random_targets,
)


def complex_pair_spec():
    """2x2 quadratic whose spectrum turns complex under any coupling strong
    enough: with a huge epsilon even tau = 1/64 fails."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=np.array([-1.0, -2.0, -3.0, -4.0]), n=2, k=2),
        lead=LeadingDiagonal(alpha_k=np.ones(2)),
        graphs=(Graph(2, ((1, 2),)), Graph(2, ((1, 2),))),
        epsilon=500.0,
        controls=SolverControls(max_iter=10),
    )


def reference_spectral_map(x, spec, tau):
    """The spectral map as assemble + proper_values computes it."""
    sep_tol = matpoly.SEP_TOL_REL * max(spec.spectrum.diameter, 1.0)
    return proper_values(assemble(x, spec, tau), sep_tol=sep_tol)


def same_spectral_map(x, spec, tau, companion):
    """Assert that spectral_map on the template returns bitwise what
    reference_spectral_map returns, or raises the same exception type;
    return whether the spectrum was real and simple."""
    try:
        ref = reference_spectral_map(x, spec, tau)
    except (NonRealSpectrum, NearDegenerate) as exc:
        with pytest.raises(type(exc)):
            spectral_map(x, spec, tau, companion)
        return False
    got = spectral_map(x, spec, tau, companion)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(got.companion_rows, ref.companion_rows)
    return True


def make_spec(rng, n, k, epsilon, **controls):
    return ProblemSpec(
        spectrum=TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
        graphs=tuple(random_graph(rng, n) for _ in range(k)),
        epsilon=epsilon,
        controls=SolverControls(**controls),
    )


class TestAssemble:
    def test_zero_offdiagonals_reproduce_seed(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        P = assemble(seed_diagonals(spec.seed()), spec)
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


class TestSpectralMap:
    def test_seed_with_zero_offdiagonals(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        vals = spectral_map(seed_diagonals(spec.seed()), spec).values
        assert np.allclose(vals, np.sort(TARGETS), atol=1e-12)

    def test_golden_solution_hits_targets(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        vals = spectral_map(x, path4_spec).values
        assert np.max(np.abs(vals - np.sort(TARGETS))) <= 1e-9

    def test_continuity_in_offdiagonal_scale(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rng, 4, 2, epsilon=1.0)
        x = seed_diagonals(spec.seed())
        base = spectral_map(x, spec, tau=0.0).values
        dev = [np.linalg.norm(spectral_map(x, spec, tau=t).values - base)
               for t in (1e-2, 1e-4, 1e-6)]
        assert dev[0] > dev[1] > dev[2]
        assert dev[2] < 1e-4

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_template_matches_assemble_and_proper_values(self, tau, path4_spec, linked4_spec):
        rng = np.random.default_rng(59)
        specs = [path4_spec, linked4_spec] + [make_spec(rng, n, k, 0.3) for n, k in ((3, 1), (5, 3), (2, 3))]
        boundaries = 0
        for spec in specs:
            companion = solver.companion_template(spec, tau)
            seed = seed_diagonals(spec.seed())
            real, nonreal = [], []
            for scale in (0.0, 0.1, 1.0, 5.0):
                for _ in range(4):
                    x = seed + scale * rng.standard_normal(len(seed))
                    (real if same_spectral_map(x, spec, tau, companion) else nonreal).append(x)
            if real and nonreal:
                # bisect to the NonRealSpectrum boundary; every step is compared too
                lo, hi = real[0], nonreal[0]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if same_spectral_map(mid, spec, tau, companion):
                        lo = mid
                    else:
                        hi = mid
                assert np.max(np.abs(hi - lo)) <= 1e-12 * np.max(np.abs(hi))
                boundaries += 1
            if real:
                # the public form builds its own template
                assert np.array_equal(spectral_map(real[-1], spec, tau).values,
                                      reference_spectral_map(real[-1], spec, tau).values)
        assert boundaries >= 2

    def test_vectors_need_an_attached_polynomial(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        decomp = spectral_map(x, path4_spec)
        with pytest.raises(ValueError):
            decomp.vectors
        P = assemble(x, path4_spec)
        assert np.array_equal(replace(decomp, polynomial=P).vectors, proper_values(P).vectors)


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
        rep = newton_solve(spec)
        assert rep.converged
        assert len(rep.iterations) == 1  # the initial residual record only
        assert np.array_equal(rep.x, seed_diagonals(spec.seed()))

    def test_seed_newton_step_is_tiny(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        rep = newton_solve(spec)
        assert rep.residual <= 1e-12

    def test_random_instance(self):
        rng = np.random.default_rng(17)
        spec = make_spec(rng, 5, 3, epsilon=0.1, newton_tol=1e-10)
        rep = newton_solve(spec)
        assert rep.converged and rep.residual <= 1e-10
        # independent re-check of the output polynomial
        vals = proper_values(rep.polynomial).values
        assert np.max(np.abs(vals - spec.spectrum.sorted_values())) <= 1e-10
        assert rep.structure_ok

    def test_monotone_residual_trace(self):
        rng = np.random.default_rng(23)
        spec = make_spec(rng, 4, 2, epsilon=0.15)
        rep = newton_solve(spec)
        residuals = [t.residual for t in rep.iterations]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_offdiagonals_bitwise_fixed(self):
        rng = np.random.default_rng(31)
        spec = make_spec(rng, 4, 2, epsilon=0.2)
        rep = newton_solve(spec)
        for s, g in enumerate(spec.graphs):
            A = rep.polynomial.coeffs[s]
            for y, (i, j) in zip(spec.offdiag_values[s], g.edges):
                assert A[i - 1, j - 1] == y and A[j - 1, i - 1] == y
            edge_set = set(g.edges)
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if (i + 1, j + 1) not in edge_set:
                        assert A[i, j] == 0.0

    def test_one_linearization_per_solve_whatever_the_trial_count(self, monkeypatch):
        calls = {"linearize": 0, "spectral_map": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(matpoly, "linearize", counting("linearize", matpoly.linearize))
        monkeypatch.setattr(solver, "spectral_map", counting("spectral_map", solver.spectral_map))
        trials = []
        # the complex pair at tau = 1/8 backtracks deep only under a looser cap
        for spec, tau, max_iter, cap in (
                (make_spec(np.random.default_rng(41), 4, 2, epsilon=0.1), 1.0, None, solver.MAX_BACKTRACKS),
                (complex_pair_spec(), 1 / 64, 8, solver.MAX_BACKTRACKS),
                (complex_pair_spec(), 1 / 8, 8, 30)):
            monkeypatch.setattr(solver, "MAX_BACKTRACKS", cap)
            calls.update(linearize=0, spectral_map=0)
            try:
                newton_solve(spec, tau=tau, max_iter=max_iter)
            except NoConvergence:
                pass
            assert calls["linearize"] == 1
            trials.append(calls["spectral_map"])
        assert max(trials) > 10 * min(trials)

    def test_stalled_step_stops_after_max_backtracks_plus_one_trials(self, monkeypatch):
        # at tau = 1/64 the complex pair's first Newton step lowers the
        # residual at none of the lengths 1, 1/2, 1/4
        calls = []
        spectral = solver.spectral_map

        def counting(*args, **kwargs):
            calls.append(1)
            return spectral(*args, **kwargs)

        monkeypatch.setattr(solver, "spectral_map", counting)
        with pytest.raises(NoConvergence, match=r"backtracking stalled .*\(iteration 1\)"):
            newton_solve(complex_pair_spec(), tau=1 / 64, max_iter=8)
        assert len(calls) == 1 + solver.MAX_BACKTRACKS + 1  # the start, then the trials

    def test_nonreal_start_raises(self, path4_spec):
        # full-strength off-diagonals on both path coefficients push a pair
        # of values complex; direct Newton must fail fast
        with pytest.raises(NonRealSpectrum):
            newton_solve(path4_spec)


class TestContinuationSolve:
    def test_single_step_matches_direct_newton(self):
        rng = np.random.default_rng(41)
        spec = make_spec(rng, 4, 2, epsilon=0.1)
        direct = newton_solve(spec)
        cont = continuation_solve(spec)
        assert cont.continuation_path == (1.0,)
        assert np.array_equal(cont.x, direct.x)
        assert cont.iterations == direct.iterations

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
        assert np.array_equal(rep.x, seed_diagonals(spec.seed()))
        assert rep.residual == np.inf
        assert re.fullmatch(r"NoConvergence at tau=0\.015625: backtracking stalled .*", rep.failure)

    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec"])
    def test_bundled_problems_take_at_most_five_newton_solves(self, name, request, monkeypatch):
        spec = request.getfixturevalue(name)
        taus = []
        newton = solver.newton_solve

        def counting(*args, **kwargs):
            taus.append(kwargs["tau"])
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting)
        rep = continuation_solve(spec)
        assert rep.converged and rep.continuation_path[-1] == 1.0
        assert len(taus) <= 5

    def test_failing_problem_stays_within_the_documented_budget(self, monkeypatch):
        taus, corrector_iterations, jacobians = [], [], []
        newton, jacobian = solver.newton_solve, solver.jacobian_x

        def counting_jacobian(*args, **kwargs):
            jacobians.append(1)
            return jacobian(*args, **kwargs)

        def recording(*args, **kwargs):
            # newton_solve builds one Jacobian per iteration
            taus.append(kwargs["tau"])
            before = len(jacobians)
            try:
                return newton(*args, **kwargs)
            finally:
                corrector_iterations.append((kwargs["tau"], len(jacobians) - before))

        monkeypatch.setattr(solver, "jacobian_x", counting_jacobian)
        monkeypatch.setattr(solver, "newton_solve", recording)
        rep = continuation_solve(complex_pair_spec())
        assert not rep.converged
        M = solver.MAX_CONTINUATION_STEPS
        log2_m = int(np.log2(M))
        # continuation_solve's docstring: at most 2M - 1 + log2(M) solves,
        # log2(M) + 1 when no step converges
        assert len(taus) <= 2 * M - 1 + log2_m
        assert len(taus) == log2_m + 1
        assert min(taus) == 1.0 / M
        assert corrector_iterations
        assert all(n <= solver.MAX_CORRECTOR_ITER for tau, n in corrector_iterations if tau < 1.0)

    @pytest.mark.parametrize("spec, newton_budget", [
        # no step converges: log2(M) + 1 Newton solves
        (complex_pair_spec(), int(np.log2(solver.MAX_CONTINUATION_STEPS)) + 1),
        # six tau steps converge, then a corrector stalls: 2M - 1 + log2(M)
        (make_spec(np.random.default_rng(1), 3, 2, epsilon=1.0),
         2 * solver.MAX_CONTINUATION_STEPS - 1 + int(np.log2(solver.MAX_CONTINUATION_STEPS))),
    ], ids=["complex_pair", "stalling"])
    def test_spectral_map_calls_stay_within_the_documented_budget(self, spec, newton_budget, monkeypatch):
        M = solver.MAX_CONTINUATION_STEPS

        def solve_budget(max_iter):
            return 1 + max_iter * (solver.MAX_BACKTRACKS + 1)

        # continuation_solve's docstring: 133 * 151 = 20,083 with the default controls
        default_iter = SolverControls().max_iter
        assert (2 * M - 1 + int(np.log2(M))) * solve_budget(default_iter) == 20_083

        calls, per_solve = [], []
        spectral, newton = solver.spectral_map, solver.newton_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return spectral(*args, **kwargs)

        def recording(*args, **kwargs):
            start = len(calls)
            max_iter = kwargs["max_iter"] or spec.controls.max_iter
            try:
                return newton(*args, **kwargs)
            finally:
                per_solve.append((len(calls) - start, solve_budget(max_iter)))

        monkeypatch.setattr(solver, "spectral_map", counting)
        monkeypatch.setattr(solver, "newton_solve", recording)
        rep = continuation_solve(spec)
        assert not rep.converged and "backtracking stalled" in rep.failure
        assert all(used <= budget for used, budget in per_solve)
        assert len(per_solve) <= newton_budget
        assert len(calls) <= newton_budget * solve_budget(spec.controls.max_iter)

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

    def test_graph_vertex_mismatch(self):
        with pytest.raises(InvariantViolation):
            ProblemSpec(
                spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
                lead=LeadingDiagonal(alpha_k=np.ones(4)),
                graphs=(Graph(3), Graph(4)),
            )


def test_vectors_refined_only_for_iterates_that_build_a_jacobian(path4_spec, monkeypatch):
    from structured_iep import matpoly, solver

    refined, jacobians = [], []
    refine, jacobian = matpoly._refine_vectors, solver.jacobian_x

    def counting_refine(P, values, V):
        refined.append(len(values))
        return refine(P, values, V)

    def counting_jacobian(*args, **kwargs):
        jacobians.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(matpoly, "_refine_vectors", counting_refine)
    monkeypatch.setattr(solver, "jacobian_x", counting_jacobian)
    report = continuation_solve(path4_spec)
    assert report.converged
    assert jacobians and sum(refined) == path4_spec.n * path4_spec.k * len(jacobians)
    refined.clear()
    assert verify(report.polynomial, path4_spec).passed
    assert refined == []
