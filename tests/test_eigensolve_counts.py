"""scripts/eigensolve_counts.py: the eigensolves by kind, the Newton
trials, the converged instances and starts, and the profile events per
spectral_map of the bundled set; the held-out draw."""

import os
import sys

from conftest import ROOT, load_module


def load_script():
    return load_module("eigensolve_counts", "scripts/eigensolve_counts.py")


def test_import_leaves_the_environment_and_sys_path_alone():
    environ, path = dict(os.environ), list(sys.path)
    load_script()
    assert dict(os.environ) == environ
    assert sys.path == path


def test_bundled_counts(monkeypatch):
    # on each problem the first step is 1/2 (rho = 1.32), then path (0.5, 1):
    # 2 Newton solves and 8 eigs, one per corrector start and one per trial.
    # No corrector starts close enough to its root to reuse vectors, and
    # each seed series stops at order 4 (rho > SEED_SHIFT_MAX)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    script = load_script()
    counts = script.counts(script.instance_sets()["bundled"])
    assert counts == {"instances": 2, "newton_solves": 4, "eig": 16, "eigvals": 0, "eigh": 0, "eigvalsh": 0,
                      "trials": 12, "refused_steps": 0, "series_order": 8, "converged": 2, "start_converged": 0}


def test_a_counted_solve_records_its_series_order_and_restores_the_solver(path4_spec):
    # path4's series stops at order 4 (rho > SEED_SHIFT_MAX); both stand-ins go
    from structured_iep import matpoly, solver

    kernel, series = matpoly.lapack, solver._seed_series
    report, cost = load_script().solve_counted(path4_spec)
    assert report.converged and cost["series_order"] == 4
    assert matpoly.lapack is kernel and solver._seed_series is series


def test_the_heldout_draw_is_the_corpus_of_seeds_four_to_thirteen(monkeypatch):
    # 900 instances, 90 per generator seed in order, each the corpus set of
    # its seed, and the workloads module's own seed restored
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    script = load_script()
    import workloads

    sets = script.instance_sets(heldout=True)
    assert list(sets) == ["bundled", "corpus", "sweep", "heldout"]
    heldout = sets["heldout"]
    assert len(heldout) == 900 and list(script.HELDOUT_SEEDS) == list(range(4, 14))
    assert workloads.CORPUS_SEED == 1
    for j, seed in enumerate(script.HELDOUT_SEEDS):
        monkeypatch.setattr(workloads, "CORPUS_SEED", seed)
        for got, want in zip(heldout[90 * j:90 * (j + 1)], workloads.corpus_specs(), strict=True):
            assert got.spectrum.values.tobytes() == want.spectrum.values.tobytes()
            assert got.graphs == want.graphs and got.epsilon == want.epsilon


def test_bundled_events_per_map_are_positive_and_repeat(monkeypatch):
    # a count of calls, not a time: two runs on fresh specs agree exactly
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    script = load_script()
    first, second = (script.events_per_map(script.instance_sets()["bundled"]) for _ in range(2))
    assert first > 0.0
    assert first == second
    assert sys.getprofile() is None
