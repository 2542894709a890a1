"""scripts/eigensolve_counts.py: the eigensolves by kind, the Newton
trials and the profile events per spectral_map of the bundled set."""

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
    # No corrector starts close enough to its root to reuse vectors
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    script = load_script()
    counts = script.counts(script.instance_sets()["bundled"])
    assert counts == {"instances": 2, "newton_solves": 4, "eig": 16, "eigvals": 0, "eigh": 0, "eigvalsh": 0,
                      "trials": 12, "refused_steps": 0}


def test_bundled_events_per_map_are_positive_and_repeat(monkeypatch):
    # a count of calls, not a time: two runs on fresh specs agree exactly
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    script = load_script()
    first, second = (script.events_per_map(script.instance_sets()["bundled"]) for _ in range(2))
    assert first > 0.0
    assert first == second
    assert sys.getprofile() is None
