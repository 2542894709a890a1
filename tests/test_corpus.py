"""The success-rate floor on the benchmark's seeded corpus: the 90 fixed
instances of perfbench/workloads.py (imported, never written).  The rate may
only go up, and every converged answer must pass verify."""

import numpy as np
import pytest

from structured_iep import continuation_solve, solver, verify

from conftest import load_module

CORPUS_FLOOR = 69  # converged instances of 90: success_rate 0.767


def load_workloads():
    return load_module("perfbench_workloads", "perfbench/workloads.py")


@pytest.fixture(scope="module")
def corpus():
    return load_workloads().corpus_specs()


def test_corpus_success_rate_floor(corpus):
    assert len(corpus) == 90
    converged = [(spec, rep) for spec in corpus if (rep := continuation_solve(spec)).converged]
    assert len(converged) >= CORPUS_FLOOR
    for spec, rep in converged:
        check = verify(rep.polynomial, spec, value_tol=1e-8)
        assert check.passed, check.failure


# corpus[67]'s root as the damped direct attempt found it at tau = 1
ROOT_67 = np.array([float.fromhex(h) for h in (
    "-0x1.757250349e22cp+2", "-0x1.db55c4519f986p+6", "0x1.06beaa979eaf8p+2", "0x1.5913b43943b69p+4",
    "0x1.2b10532bbf3aep+2", "0x1.cf54570b58ad5p-1", "-0x1.0d5ddd62ac870p+2", "-0x1.00a35636391b8p+3",
)])


def test_full_steps_keep_the_root_of_instance_67(corpus):
    # rho = 2.31, so the first step is 1/4, inside the seed predictor's
    # reach.  That corrector starts within its tolerance, which gives no
    # contraction rate, so the step doubles to 1/2.  At tau = 3/4 the first
    # Newton step (0.175) is longer than the tangent predictor's
    # displacement (0.168), so that corrector fails before its trial and
    # the step halves: tau = 1/2, then 0.841 from that corrector's
    # contraction rate, then 1 - tau.  It lands on the same root
    rep = continuation_solve(corpus[67])
    assert rep.converged
    assert rep.continuation_path == pytest.approx(
        (0.25, 0.5, float.fromhex("0x1.ae96ffc964366p-1"), 1.0), rel=1e-12, abs=0.0)
    assert len(rep.correctors[0].iterations) == 1
    refused = rep.correctors[1]
    assert refused.tau == 0.75 and refused.ended == "step" and len(refused.iterations) == 1
    assert refused.detail.startswith("Newton step 0.175 longer than the predictor displacement 0.168 ")
    assert np.max(np.abs(rep.x - ROOT_67)) <= 1e-12 * np.max(np.abs(ROOT_67))


def test_correctors_from_the_seed_start_inside_the_predictor_gate(corpus, path4_spec, linked4_spec):
    # the first corrector's step is _first_step(rho), and every corrector
    # from the seed (up to and including the first converged one) has
    # tau^2 rho <= SEED_SHIFT_MAX, so it starts at the seed series, unless
    # its step is the floor 1/M
    floor, first_steps = 1.0 / solver.MAX_CONTINUATION_STEPS, []
    for spec in (*corpus, path4_spec, linked4_spec):
        rho = solver._seed_series(spec)[1]
        correctors = continuation_solve(spec).correctors
        first_steps.append(solver._first_step(rho))
        assert correctors[0].tau == first_steps[-1]
        from_seed = next((i + 1 for i, c in enumerate(correctors) if c.converged), len(correctors))
        for c in correctors[:from_seed]:
            assert c.tau ** 2 * rho <= solver.SEED_SHIFT_MAX or c.tau == floor
    # the rule is not vacuous here: some first steps are below 1
    assert min(first_steps) < 1.0
