"""Tier-1 pin of the solver's answers.  Every instance of
scripts/same_answers.py (the corpus sets of generator seeds 1-3, the sweep
and the bundled pair), solved by this checkout, must match the committed
record answers.json under that script's policy for changes that may move
the continuation path but not the root, differences(..., rtol=1e-9,
roots=True): an instance converged in the record converges, to an x within
1e-9 relative; one failed in both fails with the same kind and tau; one
failed in the record may converge, so the converged set can only grow.  The
record keeps only what that policy reads: x as hex floats, and kind and tau
for failures.  The bitwise comparison stays with same_answers.py --compare,
because another BLAS build rounds differently.

A change that moves answers re-pins the record in the same commit with

    python3 tests/test_answers.py

so that its diff shows, one line per instance, which answers moved."""

import json
import sys

from conftest import ROOT
from test_corpus import load_workloads
from test_same_answers import load_script

RECORD = ROOT / "tests" / "answers.json"


def solve_all(same_answers) -> dict:
    """{label: answer} for every instance, in same_answers.instances() order;
    the perfbench workloads module must be importable as ``workloads``."""
    return {label: same_answers.answer(spec) for label, spec in same_answers.instances()}


def test_answers_match_the_record(monkeypatch):
    same_answers = load_script()
    monkeypatch.setitem(sys.modules, "workloads", load_workloads())
    record = json.loads(RECORD.read_text())
    assert same_answers.compare(record, solve_all(same_answers), rtol=1e-9, roots=True) == []


if __name__ == "__main__":
    sys.modules["workloads"] = load_workloads()
    pinned = {
        label: {key: r[key] for key in (("converged", "x") if r["converged"] else ("converged", "kind", "tau"))}
        for label, r in solve_all(load_script()).items()
    }
    RECORD.write_text("{\n" + ",\n".join(f"{json.dumps(label)}: {json.dumps(r)}" for label, r in pinned.items())
                      + "\n}\n")
    failed = sum(not r["converged"] for r in pinned.values())
    print(f"{RECORD}: {len(pinned)} instances, {len(pinned) - failed} converged, {failed} failed")
