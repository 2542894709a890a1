"""Tier-1 pin of the solver's answers and costs.  Every instance of
scripts/same_answers.py (the corpus sets of generator seeds 1-3, the sweep
and the bundled pair) is solved once by this checkout, and both records
are checked against that one pass.

The answers must match answers.json under same_answers.py's policy for
changes that may move the continuation path but not the root,
differences(..., rtol=1e-9, roots=True): an instance converged in the
record converges, to an x within 1e-9 relative; one failed in both fails
with the same kind and tau; one failed in the record may converge, so the
converged set can only grow.  The record keeps only what that policy
reads: x as hex floats, and kind and tau for failures.  The bitwise
comparison stays with same_answers.py --compare, because another BLAS
build rounds differently.

The costs must equal costs.json exactly, instance by instance: the Newton
solves and trials of the report's Corrector records and the eigensolves by
kind at matpoly.lapack, as scripts/eigensolve_counts.py counts them
(solve_counted).  Counts are machine-independent for one numpy build;
another BLAS build may round a corrector's last step across its tolerance
and move a count by one, and then the record is re-pinned on that build.

A change that moves answers or costs re-pins both records in the same
commit with

    python3 tests/test_answers.py

so that their diffs show, one line per instance, which answers moved and
which solves got cheaper or dearer.  Before it overwrites a record, it
prints each instance whose line changes, with the keys that change: old
and new value for a number or a name, the key alone for x."""

import json
import sys

import pytest

from conftest import ROOT
from test_corpus import load_workloads
from test_eigensolve_counts import load_script as load_counts
from test_same_answers import load_script

RECORD = ROOT / "tests" / "answers.json"
COSTS = ROOT / "tests" / "costs.json"


def solve_all(same_answers, eigensolve_counts) -> tuple[dict, dict]:
    """({label: answer}, {label: cost}) for every instance, in
    same_answers.instances() order, from one counted solve of each; the
    perfbench workloads module must be importable as ``workloads``."""
    answers, costs = {}, {}
    for label, spec in same_answers.instances():
        report, costs[label] = eigensolve_counts.solve_counted(spec)
        answers[label] = same_answers.answer(report)
    return answers, costs


@pytest.fixture(scope="module")
def solved():
    same_answers = load_script()
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "workloads", load_workloads())
        answers, costs = solve_all(same_answers, load_counts())
    return same_answers, answers, costs


def test_answers_match_the_record(solved):
    same_answers, answers, _ = solved
    record = json.loads(RECORD.read_text())
    assert same_answers.compare(record, answers, rtol=1e-9, roots=True) == []


def test_costs_match_the_record(solved):
    _, _, costs = solved
    record = json.loads(COSTS.read_text())
    assert [f"{label}: {record.get(label)} -> {costs.get(label)}"
            for label in sorted(record.keys() | costs.keys()) if record.get(label) != costs.get(label)] == []


def changed_lines(path, records: dict) -> list[str]:
    """One line per label whose record differs between the file at path
    (empty when there is none) and records, in record order: the label,
    then each key that differs, as "key old -> new", or the key alone when
    its value is a list."""
    old = json.loads(path.read_text()) if path.exists() else {}
    lines = []
    for label in {**old, **records}:
        a, b = old.get(label, {}), records.get(label, {})
        keys = [key for key in {**a, **b} if a.get(key) != b.get(key)]
        if keys:
            lines.append(f"{label}: " + ", ".join(
                key if isinstance(a.get(key, b.get(key)), list) else f"{key} {a.get(key)} -> {b.get(key)}"
                for key in keys))
    return lines


def write_record(path, records: dict):
    """One line per instance, in order."""
    path.write_text("{\n" + ",\n".join(f"{json.dumps(label)}: {json.dumps(r)}" for label, r in records.items())
                    + "\n}\n")


if __name__ == "__main__":
    sys.modules["workloads"] = load_workloads()
    eigensolve_counts = load_counts()
    answers, costs = solve_all(load_script(), eigensolve_counts)
    answers = {
        label: {key: r[key] for key in (("converged", "x") if r["converged"] else ("converged", "kind", "tau"))}
        for label, r in answers.items()
    }
    for path, records in ((RECORD, answers), (COSTS, costs)):
        lines = changed_lines(path, records)
        print(f"{path.name}: {len(lines)} line(s) change", *lines, sep="\n  ")
        write_record(path, records)
    failed = sum(not r["converged"] for r in answers.values())
    print(f"{RECORD}: {len(answers)} instances, {len(answers) - failed} converged, {failed} failed")
    print(f"{COSTS}: totals " + ", ".join(f"{c} {sum(cost[c] for cost in costs.values())}"
                                          for c in eigensolve_counts.COST_COLUMNS))
