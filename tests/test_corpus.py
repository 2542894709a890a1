"""The success-rate floor on the benchmark's seeded corpus: the 90 fixed
instances of perfbench/workloads.py (imported, never written).  The rate may
only go up, and every converged answer must pass verify."""

import importlib.util
import sys

import pytest

from structured_iep import continuation_solve, verify

from conftest import ROOT

CORPUS_FLOOR = 69  # converged instances of 90: success_rate 0.767


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


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


def test_the_direct_attempt_keeps_its_line_search(corpus):
    # instance 67 converges directly at tau = 1 only through damped steps;
    # with full steps alone it needs continuation and lands on another root
    rep = continuation_solve(corpus[67])
    assert rep.converged and rep.continuation_path == (1.0,)
