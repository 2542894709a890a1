#!/usr/bin/env python3
"""Record the solver's answer on every benchmark instance, or compare two
such records.

    python3 scripts/same_answers.py --out answers.json
    python3 scripts/same_answers.py --compare parent.json change.json

Solves, with continuation_solve of the package in this checkout's src/, the
instances that perfbench/workloads.py generates (its generators are only
read): the ``corpus`` set for generator seeds 1-3, the ``sweep`` set and the
two bundled problems.  For each instance the record holds ``converged``; for
a converged solve ``x`` as hex floats, ``continuation_path`` and the
iteration records (residual and step norm as hex floats); for a failed one
the failure ``kind`` and ``tau`` read from the failure text, and the full
text as ``detail``.

--compare exits 1 when the two records differ in the instance set, in which
instances converged, in any converged instance's x, path or iterations
(bitwise), or in any failure's kind or tau; the failure detail is not
compared.  BLAS runs on one thread, as in perfbench/run.py.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from structured_iep import continuation_solve  # noqa: E402

CORPUS_SEEDS = (1, 2, 3)
FAILURE = re.compile(r"(\w+) at tau=([^:]+): ")


def instances():
    """(label, spec) for every instance, in a fixed order."""
    for seed in CORPUS_SEEDS:
        saved, workloads.CORPUS_SEED = workloads.CORPUS_SEED, seed
        try:
            specs = workloads.corpus_specs()
        finally:
            workloads.CORPUS_SEED = saved
        yield from ((f"corpus{seed}[{i}]", s) for i, s in enumerate(specs))
    yield from ((f"sweep[{i}]", s) for i, s in enumerate(workloads.sweep_specs()))
    yield from workloads.load_bundled().items()


def answer(spec) -> dict:
    rep = continuation_solve(spec)
    if rep.converged:
        return {
            "converged": True,
            "x": [float(v).hex() for v in rep.x],
            "continuation_path": [float(t).hex() for t in rep.continuation_path],
            "iterations": [[r.iteration, float(r.residual).hex(), float(r.step_norm).hex()]
                           for r in rep.iterations],
        }
    m = FAILURE.match(rep.failure)
    if m:
        kind, tau = m.group(1), m.group(2)
    else:  # a failing corrector's own report: its text, at its tau
        kind, tau = rep.failure, f"{rep.continuation_path[-1]:.6g}"
    return {"converged": False, "kind": kind, "tau": tau, "detail": rep.failure}


def compare(a: dict, b: dict) -> list[str]:
    diffs = [f"{label}: only in {'the first' if label in a else 'the second'} record"
             for label in sorted(set(a) ^ set(b))]
    for label in a.keys() & b.keys():
        ra, rb = ({k: v for k, v in r.items() if k != "detail"} for r in (a[label], b[label]))
        diffs += [f"{label}: {key} differs" for key in sorted(ra.keys() | rb.keys())
                  if ra.get(key) != rb.get(key)]
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the answers to this JSON file")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two answer files")
    args = ap.parse_args()

    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        diffs = compare(a, b)
        for line in diffs:
            print(line)
        failed = sum(not r["converged"] for r in a.values())
        print(f"{len(a)} instances, {len(a) - failed} converged, {failed} failed in {args.compare[0]}; "
              f"{len(diffs)} difference(s)")
        return 1 if diffs else 0

    answers = {label: answer(spec) for label, spec in instances()}
    pathlib.Path(args.out).write_text(json.dumps(answers, indent=1) + "\n")
    failed = sum(not r["converged"] for r in answers.values())
    print(f"{len(answers)} instances: {len(answers) - failed} converged, {failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
