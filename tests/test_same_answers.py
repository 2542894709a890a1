"""scripts/same_answers.py: compare() in its three modes and the --roots
argument check, and the per-kind tally of --rtol, on hand-built records
(no solves)."""

import json
import os
import sys

import pytest

from conftest import load_module


def load_script():
    return load_module("same_answers", "scripts/same_answers.py")


@pytest.fixture(scope="module")
def same_answers():
    return load_script()


def test_import_leaves_the_environment_and_sys_path_alone():
    environ, path = dict(os.environ), list(sys.path)
    load_script()
    assert dict(os.environ) == environ
    assert sys.path == path


def converged(x, path=(1.0,), iterations=2):
    return {
        "converged": True,
        "x": [float(v).hex() for v in x],
        "continuation_path": [float(t).hex() for t in path],
        "iterations": [[i, (0.5 ** i).hex(), (0.25 * i).hex()] for i in range(iterations)],
    }


def failed(kind="NoConvergence", tau="0.5"):
    return {"converged": False, "kind": kind, "tau": tau, "detail": f"{kind} at tau={tau}: text"}


PARENT = {"a": converged([1.0, -2.0]), "b": converged([3.0, 4.0]), "c": failed(), "d": failed()}


def test_identical_records_agree_in_every_mode(same_answers):
    for rtol, roots in ((None, False), (1e-12, False), (1e-12, True)):
        assert same_answers.compare(PARENT, dict(PARENT), rtol, roots) == []


def test_bitwise_mode_sees_the_last_bit_and_ignores_the_detail(same_answers):
    change = dict(PARENT, a=converged([1.0, -2.0 + 2.0 ** -51]), c=dict(failed(), detail="other text"))
    assert same_answers.compare(PARENT, change) == ["a: x differs"]


# a rounding difference in a and a new path with one more iteration in b
NEW_PATH = dict(PARENT, a=converged([1.0, -2.0 + 1e-13]),
                b=converged([3.0, 4.0], path=(0.5, 1.0), iterations=3))


def test_rtol_mode_allows_rounding_but_not_a_new_path(same_answers):
    assert same_answers.compare(PARENT, NEW_PATH, 1e-12) == [
        "b: continuation_path differs", "b: iteration count differs"]


def test_roots_mode_ignores_paths_and_iteration_counts(same_answers):
    assert same_answers.compare(PARENT, NEW_PATH, 1e-12, roots=True) == []


@pytest.mark.parametrize("roots", [False, True])
def test_tolerance_modes_check_roots_losses_and_failures(same_answers, roots):
    change = dict(PARENT, a=converged([1.0, -2.0 + 1e-9]), b=failed(), c=converged([5.0, 6.0]),
                  d=failed(tau="0.25"))
    # c converging only in the second record is allowed: the solved set may grow
    assert same_answers.compare(PARENT, change, 1e-12, roots) == [
        "a: x differs by 5e-10 relative",
        "b: converged only in the first record",
        "d: failure kind or tau differs",
    ]
    kind = dict(PARENT, d=failed(kind="SingularJacobian"))
    assert same_answers.compare(PARENT, kind, 1e-12, roots) == ["d: failure kind or tau differs"]


def test_instance_sets_must_match_in_every_mode(same_answers):
    change = {label: r for label, r in PARENT.items() if label != "d"}
    for rtol, roots in ((None, False), (1e-12, False), (1e-12, True)):
        assert same_answers.compare(PARENT, change, rtol, roots) == ["d: only in the first record"]


@pytest.mark.parametrize("argv", [
    ["--compare", "a.json", "b.json", "--roots"],
    ["--out", "a.json", "--rtol", "1e-9", "--roots"],
])
def test_roots_needs_rtol_and_compare(same_answers, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["same_answers.py", *argv])
    with pytest.raises(SystemExit) as exc:
        same_answers.main()
    assert exc.value.code == 2
    assert "needs" in capsys.readouterr().err


def test_rtol_compare_ends_with_one_count_per_kind(same_answers, tmp_path, monkeypatch, capsys):
    change = dict(NEW_PATH, c=converged([5.0, 6.0]), d=failed(tau="0.25"))
    files = []
    for name, record in (("parent.json", PARENT), ("change.json", change)):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(record))
    monkeypatch.setattr(sys, "argv", ["same_answers.py", "--compare", *map(str, files), "--rtol", "1e-12"])
    assert same_answers.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "differences by kind: converged set 0, x 0, continuation path 1, iteration count 1, "
        "failure kind or tau 1")
