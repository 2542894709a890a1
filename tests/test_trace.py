"""The benchmark's tracer (perfbench/layers.py) still installs on the package
and sees every Newton trial and continuation tangent: a change that moves a
traced function or the module it is looked up from fails here instead of
breaking traced benchmark runs.  The report's Corrector records count the
same Newton solves, trials, accepted steps and Jacobians."""

import pytest

from structured_iep import NonRealSpectrum, problems, solver  # noqa: F401 (the tracer wraps problems.load_problem)

from conftest import load_module
from test_solver import complex_pair_spec, count_eigensolves, stalling_spec, weakly_coupled_spec


def load_layers():
    return load_module("perfbench_layers", "perfbench/layers.py")


def test_tracer_installs_and_counts_every_trial(path4_spec, monkeypatch):
    # the tracer's matpoly.eig site wraps numpy.linalg.eig, which matpoly's
    # LAPACK kernel does not call: the kernel's own count stands in for it
    tracer = load_layers().Tracer()
    eigensolves = count_eigensolves(monkeypatch)
    with tracer.active():  # raises if a traced name is no longer bound where it is looked up
        report = solver.continuation_solve(path4_spec)
    assert report.converged
    counts = tracer.record()
    assert counts["solver.trials"] > 0
    assert eigensolves["eig"] >= counts["solver.trials"]
    # one polynomial per solve, and every converged corrector counted as kept
    assert counts["solver.assemble.calls"] == counts["solver.continuation_solve.calls"] == 1
    assert counts["solver.newton_solve.kept"] == len(report.continuation_path)
    # the solver starts from the seed's diagonals, not from a seed polynomial
    assert counts["seed.seed_coefficients.calls"] == 0
    # one Jacobian per Newton trial, one per corrector that ended at a step
    # (before its trial), and one per continuation tangent, taken at every
    # kept tau but the last
    steps = sum(c.ended == "step" for c in report.correctors)
    assert counts["sensitivity.jacobian_x.calls"] == counts["solver.trials"] + steps + len(report.continuation_path) - 1


def test_every_rejected_trial_ends_its_corrector():
    # correctors take full steps only, so a rejected trial ends its Newton
    # solve, and that solve is discarded
    tracer = load_layers().Tracer()
    with tracer.active():
        report = solver.continuation_solve(complex_pair_spec())
    assert not report.converged
    counts = tracer.record()
    assert 0 < counts["solver.trials.rejected"] <= counts["solver.newton_solve.discarded"]


def test_values_only_trials_are_counted(monkeypatch):
    # the direct solve's corrector starts with the seed series' vectors and
    # keeps them: no eig (of the LAPACK kernel, as above), a values-only
    # start, and every values-only trial still counted as a trial
    tracer = load_layers().Tracer()
    eigensolves = count_eigensolves(monkeypatch)
    with tracer.active():
        report = solver.continuation_solve(weakly_coupled_spec(20, 2))
    assert report.converged and report.continuation_path == (1.0,)
    counts = tracer.record()
    assert counts["solver.trials"] == sum(r.iteration >= 1 for r in report.iterations) >= 1
    assert counts["solver.trials.rejected"] >= 0
    assert eigensolves["eig"] == 0 and eigensolves["eigvals"] == 1 + counts["solver.trials"]


@pytest.mark.parametrize("name", ["path4", "complex_pair", "weakly_coupled", "stalling"])
def test_the_corrector_records_agree_with_the_tracer(name, path4_spec):
    # the report's records count what the tracer counts from outside; the
    # stalling problem has a trial whose spectrum is not real, and steps
    # refused before their trial
    spec = {"path4": path4_spec, "complex_pair": complex_pair_spec(),
            "weakly_coupled": weakly_coupled_spec(20, 2), "stalling": stalling_spec()}[name]
    tracer = load_layers().Tracer()
    with tracer.active():
        report = solver.continuation_solve(spec)
    counts, correctors = tracer.record(), report.correctors
    assert len(correctors) == counts["solver.newton_solve.calls"]
    assert sum(c.trials for c in correctors) == counts["solver.trials"]
    assert sum(len(c.iterations[1:]) for c in correctors) == counts["solver.newton.accepted_steps"]
    # the records say where each corrector ended
    ended = [c.ended for c in correctors]
    assert ended.count("trial") == counts["solver.trials.rejected"]
    assert sum(c.ended == "trial" and c.kind is NonRealSpectrum for c in correctors) == counts["solver.trials.nonreal"]
    # none reached max_iter
    assert "budget" not in ended
    assert [e == "converged" for e in ended] == [c.kind is None for c in correctors]
    assert ("step" in ended) == (name == "stalling")
    # one Jacobian per trial, per corrector that ended at a step, and per
    # tangent (after each converged corrector below tau = 1)
    tangents = sum(c.converged and c.tau < 1.0 for c in correctors)
    assert counts["sensitivity.jacobian_x.calls"] == counts["solver.trials"] + ended.count("step") + tangents
    assert report.converged == (name in ("path4", "weakly_coupled"))
    if report.converged:
        assert sum(c.converged for c in correctors) == counts["solver.newton_solve.kept"]
