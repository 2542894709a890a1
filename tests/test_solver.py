import re

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
    jacobian_x,
    match_targets,
    matpoly,
    matrix_of_graph,
    newton_solve,
    proper_values,
    seed_unknowns,
    spectral_map,
    solver,
    verify,
)

from conftest import (
    G_EDGES,
    H_EDGES,
    PATH_EDGES,
    TARGETS,
    derivative,
    golden_linked4_polynomial,
    golden_path4_polynomial,
    quadratic_targets_spec,
    graph_edges,
    random_graph,
    random_targets,
    unit_vectors,
)
from test_matpoly import sparse_quadratic_80


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


def stalling_spec():
    """Five tau steps converge, then a corrector stalls."""
    return make_spec(np.random.default_rng(1), 3, 2, epsilon=1.0)


def reference_spectral_map(x, spec, tau):
    """The spectral map as assemble + proper_values computes it."""
    sep_tol = matpoly.SEP_TOL_REL * spec.spectrum.scale
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
        # reads spec.ramp throughout, and must not have written it
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
        assert not any(c.flags.writeable for c in spec.ramp.coeffs)


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
    def test_template_matches_assemble_and_proper_values(self, tau, path4_spec, linked4_spec):
        rng = np.random.default_rng(59)
        specs = [path4_spec, linked4_spec] + [make_spec(rng, n, k, 0.3) for n, k in ((3, 1), (5, 3), (2, 3))]
        boundaries = 0
        for spec in specs:
            companion = solver.companion_template(spec, tau)
            seed = seed_unknowns(spec.spectrum, spec.lead)
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

    def test_template_vectors_equal_proper_values_vectors(self, path4_spec):
        gold = golden_path4_polynomial()
        x = np.concatenate([np.diag(gold.coeffs[0]), np.diag(gold.coeffs[1])])
        decomp = spectral_map(x, path4_spec)
        want = proper_values(assemble(x, path4_spec))
        assert decomp.companion_rows.tobytes() == want.companion_rows.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.0, 1 / 3, 0.8125, 1.0])
    def test_template_is_the_companion_of_the_assembled_polynomial(self, k, tau):
        # mixed-sign off-diagonals: the template's signed zeros must be
        # those of the assembled polynomial's companion too
        rng = np.random.default_rng(71 + k)
        n = 5
        graphs = tuple(random_graph(rng, n, p=0.7) for _ in range(k))
        spec = ProblemSpec(
            spectrum=TargetSpectrum(values=random_targets(rng, n, k), n=n, k=k),
            lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, n)),
            graphs=graphs,
            offdiag_values=tuple(0.05 * rng.choice([-1.0, 1.0], g.num_edges) for g in graphs),
        )
        companion = solver.companion_template(spec, tau)
        P0 = assemble(np.zeros(n * k), spec, tau)
        reference = matpoly._pencil(P0) if k == 1 else matpoly.linearize(P0)
        assert companion.matrix.tobytes() == reference.tobytes()
        x = seed_unknowns(spec.spectrum, spec.lead) + 0.01 * rng.standard_normal(n * k)
        got, want = companion.proper_values(x), proper_values(assemble(x, spec, tau))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.companion_rows.tobytes() == want.companion_rows.tobytes()


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
        x, _, iterations = newton_solve(spec)
        assert len(iterations) == 1  # the initial residual record only
        assert np.array_equal(x, seed_unknowns(spec.spectrum, spec.lead))

    def test_seed_newton_step_is_tiny(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        _, _, iterations = newton_solve(spec)
        assert iterations[-1].residual <= 1e-12

    def test_random_instance(self):
        rng = np.random.default_rng(17)
        spec = make_spec(rng, 5, 3, epsilon=0.1, newton_tol=1e-10)
        x, _, iterations = newton_solve(spec)
        assert iterations[-1].residual <= 1e-10
        # independent re-check of the polynomial of x: values and structure
        assert verify(assemble(x, spec), spec, value_tol=1e-10).passed

    def test_monotone_residual_trace(self):
        rng = np.random.default_rng(23)
        spec = make_spec(rng, 4, 2, epsilon=0.15)
        _, _, iterations = newton_solve(spec)
        residuals = [t.residual for t in iterations]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

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

    def test_one_linearization_per_solve_whatever_the_trial_count(self, monkeypatch):
        # the linearization is the companion template, built from the ramp:
        # linearize itself is never called
        calls = {"companion_template": 0, "linearize": 0, "spectral_map": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "companion_template",
                            counting("companion_template", solver.companion_template))
        monkeypatch.setattr(matpoly, "linearize", counting("linearize", matpoly.linearize))
        monkeypatch.setattr(solver, "spectral_map", counting("spectral_map", solver.spectral_map))
        trials = []
        # the complex pair at tau = 1/8 backtracks deep only under a looser cap
        for spec, tau, cap in (
                (make_spec(np.random.default_rng(41), 4, 2, epsilon=0.1), 1.0, solver.MAX_BACKTRACKS),
                (complex_pair_spec(max_iter=8), 1 / 64, solver.MAX_BACKTRACKS),
                (complex_pair_spec(max_iter=8), 1 / 8, 30)):
            monkeypatch.setattr(solver, "MAX_BACKTRACKS", cap)
            calls.update(companion_template=0, linearize=0, spectral_map=0)
            try:
                newton_solve(spec, tau=tau)
            except NoConvergence:
                pass
            assert calls["companion_template"] == 1
            assert calls["linearize"] == 0
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
            newton_solve(complex_pair_spec(max_iter=8), tau=1 / 64)
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
        curvature, rho = solver._seed_curvature(spec)
        assert rho <= solver.SEED_SHIFT_MAX  # the direct attempt starts at seed + c
        predicted, _, iterations = newton_solve(spec, x0=seed_unknowns(spec.spectrum, spec.lead) + curvature)
        cont = continuation_solve(spec)
        assert cont.continuation_path == (1.0,)
        assert np.array_equal(cont.x, predicted)
        assert cont.iterations == iterations
        # the same root as Newton from the bare seed
        direct, _, _ = newton_solve(spec)
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
        assert re.fullmatch(r"NoConvergence at tau=0\.015625: backtracking stalled .*", rep.failure)

    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec"])
    def test_bundled_problems_take_at_most_five_newton_solves(self, name, request, monkeypatch):
        # and keep the path (0.5, 1)
        spec = request.getfixturevalue(name)
        taus = []
        newton = solver.newton_solve

        def counting(*args, **kwargs):
            taus.append(kwargs["tau"])
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting)
        rep = continuation_solve(spec)
        assert rep.converged and rep.continuation_path == (0.5, 1.0)
        assert len(taus) <= 5

    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec", "stalling"])
    def test_correctors_below_tau_one_stop_at_the_looser_tolerance(self, name, request, monkeypatch):
        spec = stalling_spec() if name == "stalling" else request.getfixturevalue(name)
        loose = solver.CORRECTOR_TOL_REL * spec.spectrum.scale
        full = spec.controls.resolved_tol(spec.spectrum)
        converged, newton = [], solver.newton_solve

        def recording(*args, **kwargs):
            state = newton(*args, **kwargs)
            converged.append((kwargs["tau"], [r.residual for r in state[2]]))
            return state

        monkeypatch.setattr(solver, "newton_solve", recording)
        rep = continuation_solve(spec)
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
        spec = complex_pair_spec()
        rep = continuation_solve(spec)
        assert not rep.converged
        M = solver.MAX_CONTINUATION_STEPS
        log2_m = int(np.log2(M))
        # continuation_solve's docstring: at most 2M - 1 + log2(M) solves,
        # log2(M) + 1 when no step converges
        assert len(taus) <= 2 * M - 1 + log2_m
        assert len(taus) == log2_m + 1
        assert min(taus) == 1.0 / M
        assert corrector_iterations
        # continuation_solve's docstring: every corrector within controls.max_iter
        assert all(n <= spec.controls.max_iter for tau, n in corrector_iterations)

    @pytest.mark.parametrize("spec, newton_budget", [
        # no step converges: log2(M) + 1 Newton solves
        (complex_pair_spec(), int(np.log2(solver.MAX_CONTINUATION_STEPS)) + 1),
        # five tau steps converge, then a corrector stalls: 2M - 1 + log2(M)
        (stalling_spec(),
         2 * solver.MAX_CONTINUATION_STEPS - 1 + int(np.log2(solver.MAX_CONTINUATION_STEPS))),
    ], ids=["complex_pair", "stalling"])
    def test_spectral_map_calls_stay_within_the_documented_budget(self, spec, newton_budget, monkeypatch):
        M = solver.MAX_CONTINUATION_STEPS

        def solve_budget(max_iter):
            return 1 + max_iter * (solver.MAX_BACKTRACKS + 1)

        # every Newton solve within the direct attempt's budget: 133 * 151 =
        # 20,083 with the default controls, looser than the 6,883 of
        # continuation_solve's docstring (test_only_the_direct_attempt_backtracks)
        default_iter = SolverControls().max_iter
        assert (2 * M - 1 + int(np.log2(M))) * solve_budget(default_iter) == 20_083

        calls, per_solve = [], []
        spectral, newton = solver.spectral_map, solver.newton_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return spectral(*args, **kwargs)

        def recording(*args, **kwargs):
            start = len(calls)
            try:
                return newton(*args, **kwargs)
            finally:
                per_solve.append((len(calls) - start, solve_budget(spec.controls.max_iter)))

        monkeypatch.setattr(solver, "spectral_map", counting)
        monkeypatch.setattr(solver, "newton_solve", recording)
        rep = continuation_solve(spec)
        assert not rep.converged and "backtracking stalled" in rep.failure
        assert all(used <= budget for used, budget in per_solve)
        assert len(per_solve) <= newton_budget
        assert len(calls) <= newton_budget * solve_budget(spec.controls.max_iter)

    @pytest.mark.parametrize("spec", [
        complex_pair_spec(),
        stalling_spec(),
    ], ids=["complex_pair", "stalling"])
    def test_only_the_direct_attempt_backtracks(self, spec, monkeypatch):
        M = solver.MAX_CONTINUATION_STEPS

        def direct_budget(max_iter):
            return 1 + max_iter * (solver.MAX_BACKTRACKS + 1)

        def total_budget(max_iter):
            return direct_budget(max_iter) + (2 * M - 2 + int(np.log2(M))) * (1 + max_iter)

        # continuation_solve's docstring: 151 + 132 * 51 = 6,883 with the default controls
        assert total_budget(SolverControls().max_iter) == 6_883

        calls, jacobians, per_solve = [], [], []
        spectral, newton, jacobian = solver.spectral_map, solver.newton_solve, solver.jacobian_x

        def counting(*args, **kwargs):
            calls.append(1)
            return spectral(*args, **kwargs)

        def counting_jacobian(*args, **kwargs):
            jacobians.append(1)
            return jacobian(*args, **kwargs)

        def recording(*args, **kwargs):
            start, iterations = len(calls), len(jacobians)  # one Jacobian per iteration
            try:
                return newton(*args, **kwargs)
            finally:
                per_solve.append((len(calls) - start, len(jacobians) - iterations,
                                  spec.controls.max_iter, kwargs["line_search"]))

        monkeypatch.setattr(solver, "spectral_map", counting)
        monkeypatch.setattr(solver, "jacobian_x", counting_jacobian)
        monkeypatch.setattr(solver, "newton_solve", recording)
        rep = continuation_solve(spec)
        assert not rep.converged and "backtracking stalled" in rep.failure
        (used, _, max_iter, line_search), *later = per_solve
        assert line_search and used <= direct_budget(max_iter)
        assert later and not any(line_search for *_, line_search in later)
        # one trial per iteration: the first rejected full step ends a corrector
        assert all(used == 1 + iterations <= 1 + max_iter for used, iterations, max_iter, _ in later)
        assert len(calls) <= total_budget(spec.controls.max_iter)

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


def old_structure_detail(P, spec):
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
            assert detail == old_structure_detail(P, spec) and leading_ok
            verdicts.update(detail)
        assert verdicts == {True, False}

    def test_zero_epsilon_seed_fails_structure(self, path4_spec):
        spec = quadratic_targets_spec(path4_spec.graphs, epsilon=0.0)
        rep = continuation_solve(spec)
        assert rep.converged and not rep.structure_ok
        assert rep.structure_detail == old_structure_detail(rep.polynomial, spec) == (False, False)

    def test_verify_sees_a_missing_edge(self, path4_spec):
        gold = golden_path4_polynomial()
        A0 = gold.coeffs[0].copy()
        A0[0, 1] = A0[1, 0] = 0.0
        P = matpoly.MatrixPolynomial((A0, *gold.coeffs[1:]))
        report = verify(P, path4_spec, value_tol=1.0)
        assert not report.passed and report.failure == "structure mismatch"
        assert report.structure_detail == old_structure_detail(P, path4_spec) == (False, True)


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
    # (u^T P'(lambda) u) for unit proper vectors u, with [A_1 ... A_k] read
    # from the companion's last block row and the forms summed by Horner
    decomp = proper_values(build())
    lam, U, lead = decomp.values, unit_vectors(decomp), decomp.lead
    nk, n = U.shape
    k = nk // n
    upper = np.hstack((-lead[:, None] * decomp.companion[-n:, n:], np.diag(lead)))
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
    shapes, solve = [], np.linalg.solve

    def recording_solve(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
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


class TestSeedPredictor:
    @pytest.mark.parametrize("name", ["path4_spec", "linked4_spec", "k1", "k3"])
    def test_error_is_third_order_or_better_in_tau(self, name, request):
        if name in ("k1", "k3"):
            # path graphs are bipartite, so x(tau) is even in tau, as on path4
            k = int(name[1])
            spec = ProblemSpec(
                spectrum=TargetSpectrum(values=random_targets(np.random.default_rng(7), 4, k), n=4, k=k),
                lead=LeadingDiagonal(alpha_k=np.array([0.5, 1.0, 1.5, 2.0])),
                graphs=(Graph(4, PATH_EDGES),) * k,
                epsilon=0.3,
                controls=SolverControls(newton_tol=1e-13),
            )
        else:
            spec = quadratic_targets_spec(request.getfixturevalue(name).graphs, newton_tol=1e-13)
        curvature, _ = solver._seed_curvature(spec)
        seed = seed_unknowns(spec.spectrum, spec.lead)
        errors = []
        for tau in (0.04, 0.02, 0.01):
            predicted = seed + tau ** 2 * curvature
            x, _, _ = newton_solve(spec, x0=predicted, tau=tau)
            errors.append(np.linalg.norm(x - predicted))
        # x(tau) - seed - tau^2 c = O(tau^3): at least 8x smaller per halving
        assert errors[0] >= 8 * errors[1] and errors[1] >= 8 * errors[2]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_a_per_entry_reference(self, k):
        # g_r and p_r' from the assembled seed and ramp, one entry at a time,
        # and the interpolant from a Vandermonde solve
        spec = make_spec(np.random.default_rng(11), 5, k, epsilon=0.4)
        n, seed, targets = spec.n, spec.seed(), spec.spectrum.values
        ramp = matpoly.MatrixPolynomial(assemble(np.zeros(n * k), spec).coeffs[:k])
        c_ref, rho_ref = np.empty(n * k), 0.0
        for r in range(n):
            roots = targets[r * k:(r + 1) * k]
            g = np.empty(k)
            for i, lam in enumerate(roots):
                D, S = matpoly.evaluate(ramp, lam), matpoly.evaluate(seed, lam)
                g[i] = sum(D[r, j] ** 2 / S[j, j] for j in range(n) if j != r)
                slope = matpoly.evaluate(derivative(seed), lam)[r, r]
                gap = np.min(np.abs(targets[targets != lam] - lam))
                rho_ref = max(rho_ref, abs(g[i] / slope) / gap)
            c_ref[r::n] = np.linalg.solve(np.vander(roots, k, increasing=True), g)
        c, rho = solver._seed_curvature(spec)
        assert np.allclose(c, c_ref, rtol=1e-10, atol=1e-12 * np.max(np.abs(c_ref)))
        assert rho == pytest.approx(rho_ref, rel=1e-10)

    def test_near_resonant_pair_starts_at_the_bare_seed(self, monkeypatch):
        spec = near_resonant_spec()
        _, rho = solver._seed_curvature(spec)
        assert rho > solver.SEED_SHIFT_MAX
        starts = record_start_points(monkeypatch)
        continuation_solve(spec)
        seed = seed_unknowns(spec.spectrum, spec.lead)
        assert starts[0].tobytes() == seed.tobytes()

    def test_small_shift_ratio_starts_at_seed_plus_curvature(self, monkeypatch):
        spec = make_spec(np.random.default_rng(41), 4, 2, epsilon=0.1)
        curvature, rho = solver._seed_curvature(spec)
        assert rho <= solver.SEED_SHIFT_MAX
        starts = record_start_points(monkeypatch)
        continuation_solve(spec)
        assert starts[0].tobytes() == (seed_unknowns(spec.spectrum, spec.lead) + curvature).tobytes()

    def test_retries_from_the_seed_use_the_gate_at_their_own_tau(self, path4_spec, monkeypatch):
        # rho = 1.32: the direct attempt at tau = 1 starts at the bare seed,
        # its retry at tau = 1/2 at seed + c / 4
        curvature, rho = solver._seed_curvature(path4_spec)
        assert 0.25 * rho <= solver.SEED_SHIFT_MAX < rho
        starts = record_start_points(monkeypatch)
        rep = continuation_solve(path4_spec)
        seed = seed_unknowns(path4_spec.spectrum, path4_spec.lead)
        assert rep.continuation_path == (0.5, 1.0)
        assert starts[0].tobytes() == seed.tobytes()
        assert starts[1].tobytes() == (seed + 0.25 * curvature).tobytes()


def test_continuation_solve_builds_each_offdiagonal_matrix_once(path4_spec, monkeypatch):
    # spec.ramp is built once; assemble scales it instead of rebuilding it
    calls = []

    def counting(*args):
        calls.append(1)
        return matrix_of_graph(*args)

    monkeypatch.setattr(solver, "matrix_of_graph", counting)
    assert continuation_solve(path4_spec).converged
    assert len(calls) == path4_spec.k


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
    curvature, _ = solver._seed_curvature(spec)
    _, _, iterations = newton_solve(spec, x0=seed_unknowns(spec.spectrum, spec.lead) + 0.25 * curvature, tau=0.5)
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
    curvature, _ = solver._seed_curvature(path4_spec)
    x, decomp, _ = newton_solve(path4_spec, x0=seed_unknowns(path4_spec.spectrum, path4_spec.lead) + 0.25 * curvature, tau=0.5)
    fresh = reference_spectral_map(x, path4_spec, 0.5)
    assert np.array_equal(solver._tangent(path4_spec, decomp), solver._tangent(path4_spec, fresh))

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return proper_values(*args, **kwargs)

    monkeypatch.setattr(matpoly, "proper_values", counting)
    monkeypatch.setattr(solver, "proper_values", counting)
    rep = continuation_solve(path4_spec)
    assert rep.converged and len(rep.continuation_path) > 1
    assert calls == []
