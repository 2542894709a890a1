"""The success-rate floor on the benchmark's seeded corpus: the 90 fixed
instances of perfbench/workloads.py (imported, never written).  The rate may
only go up, and every converged answer must pass verify."""

import numpy as np
import pytest

from structured_iep import continuation_solve, verify

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
    # the full step from the seed at tau = 1 does not lower the residual, so
    # continuation converges at 0.5, whose corrector contracts at about the
    # target rate (0.054): the next step is 0.96 times the last, then 1 - tau.
    # It lands on the same root
    rep = continuation_solve(corpus[67])
    assert rep.converged
    assert rep.continuation_path == pytest.approx((0.5, 0.9821307224611011, 1.0), rel=1e-12, abs=0.0)
    assert np.max(np.abs(rep.x - ROOT_67)) <= 1e-12 * np.max(np.abs(ROOT_67))
