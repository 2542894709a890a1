#!/usr/bin/env python3
"""Record the solver's answer on every benchmark instance, or compare two
such records.

    python3 scripts/same_answers.py --out answers.json
    python3 scripts/same_answers.py --compare parent.json change.json
    python3 scripts/same_answers.py --compare parent.json change.json --rtol 1e-12
    python3 scripts/same_answers.py --compare parent.json change.json --rtol 1e-9 --roots

Solves, with continuation_solve of the package in this checkout's src/, the
instances that perfbench/workloads.py generates (its generators are only
read): the ``corpus`` set for generator seeds 1-3, the ``sweep`` set and the
two bundled problems.  For each instance the record holds ``converged``; for
a converged solve ``x`` as hex floats, ``continuation_path`` and the
iteration records (residual and step norm as hex floats); for a failed one
the ``kind`` (the error's class name) and ``tau`` (to 6 significant
digits) of the solve's last corrector, and the report's failure text as
``detail``.

--compare A B exits 1 when the two records differ in the instance set, in
which instances converged, in any converged instance's x, path or
iterations (bitwise), or in any failure's kind or tau; the failure detail
is not compared.  With --rtol R it applies the same-answers policy for
changes that round differently instead: every instance converged in A
converges in B, commonly converged instances have equal paths and
iteration counts and x within R relative (max |x_A - x_B| / max |x_A|),
and instances failed in both fail with the same kind and tau.  --roots
(with --rtol) drops the path and iteration-count equality from that
policy, for changes that move the continuation path or the Newton start
but not the root.  With --rtol the last line counts the differences of
each kind (KINDS).  --out runs BLAS on one thread, as in perfbench/run.py.
Importing this module (for compare()) changes neither os.environ nor
sys.path: only --out does, before it imports numpy.
"""

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS_SEEDS = (1, 2, 3)
# the kinds of difference the --rtol policy reports, in the order counted
KINDS = ("converged set", "x", "continuation path", "iteration count", "failure kind or tau")


def instances():
    """(label, spec) for every instance, in a fixed order; perfbench/ must
    be on sys.path."""
    import workloads

    for seed in CORPUS_SEEDS:
        saved, workloads.CORPUS_SEED = workloads.CORPUS_SEED, seed
        try:
            specs = workloads.corpus_specs()
        finally:
            workloads.CORPUS_SEED = saved
        yield from ((f"corpus{seed}[{i}]", s) for i, s in enumerate(specs))
    yield from ((f"sweep[{i}]", s) for i, s in enumerate(workloads.sweep_specs()))
    yield from workloads.load_bundled().items()


def answer(rep) -> dict:
    """The record of one continuation_solve report."""
    if rep.converged:
        return {
            "converged": True,
            "x": [float(v).hex() for v in rep.x],
            "continuation_path": [float(t).hex() for t in rep.continuation_path],
            "iterations": [[r.iteration, float(r.residual).hex(), float(r.step_norm).hex()]
                           for r in rep.iterations],
        }
    last = rep.correctors[-1]
    return {"converged": False, "kind": last.kind.__name__, "tau": f"{last.tau:.6g}", "detail": rep.failure}


def relative_x_difference(ra: dict, rb: dict) -> float:
    """max |x_A - x_B| / max |x_A| of two converged answers."""
    xa, xb = ([float.fromhex(v) for v in r["x"]] for r in (ra, rb))
    scale = max(abs(v) for v in xa) or 1.0
    return max(abs(u - v) for u, v in zip(xa, xb)) / scale


def differences(a: dict, b: dict, rtol: float | None = None, roots: bool = False) -> list[tuple[str, str]]:
    """(kind, line) for every difference between two records: bitwise,
    where the kind is the record key that differs, or under the
    same-answers policy at relative tolerance rtol, where it is one of
    KINDS and ``roots`` leaves out the equality of paths and iteration
    counts.  A label in one record only is of kind "instance set"."""
    diffs = [("instance set", f"{label}: only in {'the first' if label in a else 'the second'} record")
             for label in sorted(set(a) ^ set(b))]
    for label in sorted(a.keys() & b.keys()):
        ra, rb = ({k: v for k, v in r.items() if k != "detail"} for r in (a[label], b[label]))
        if rtol is None:
            diffs += [(key, f"{label}: {key} differs") for key in sorted(ra.keys() | rb.keys())
                      if ra.get(key) != rb.get(key)]
        elif not ra["converged"]:
            if not rb["converged"] and (ra["kind"], ra["tau"]) != (rb["kind"], rb["tau"]):
                diffs.append(("failure kind or tau", f"{label}: failure kind or tau differs"))
        elif not rb["converged"]:
            diffs.append(("converged set", f"{label}: converged only in the first record"))
        else:
            if not roots and ra["continuation_path"] != rb["continuation_path"]:
                diffs.append(("continuation path", f"{label}: continuation_path differs"))
            if not roots and len(ra["iterations"]) != len(rb["iterations"]):
                diffs.append(("iteration count", f"{label}: iteration count differs"))
            rel = relative_x_difference(ra, rb)
            if rel > rtol:
                diffs.append(("x", f"{label}: x differs by {rel:.3g} relative"))
    return diffs


def compare(a: dict, b: dict, rtol: float | None = None, roots: bool = False) -> list[str]:
    """The lines of differences(a, b, rtol, roots)."""
    return [line for _, line in differences(a, b, rtol, roots)]


def kind_counts(diffs: list[tuple[str, str]]) -> str:
    """One count per kind of KINDS (and of "instance set" when there is
    one), on one line."""
    kinds = [kind for kind, _ in diffs]
    shown = (("instance set",) if "instance set" in kinds else ()) + KINDS
    return ", ".join(f"{kind} {kinds.count(kind)}" for kind in shown)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the answers to this JSON file")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two answer files")
    ap.add_argument("--rtol", type=float, default=None,
                    help="with --compare: relative tolerance on x instead of a bitwise comparison")
    ap.add_argument("--roots", action="store_true",
                    help="with --rtol: compare roots only, not paths or iteration counts")
    args = ap.parse_args()
    if args.rtol is not None and not args.compare:
        ap.error("--rtol needs --compare")
    if args.roots and args.rtol is None:
        ap.error("--roots needs --rtol")
    if args.rtol is not None and not 0.0 <= args.rtol < float("inf"):
        ap.error("--rtol must be a finite non-negative number")

    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        diffs = differences(a, b, args.rtol, args.roots)
        for _, line in diffs:
            print(line)
        failed = sum(not r["converged"] for r in a.values())
        print(f"{len(a)} instances, {len(a) - failed} converged, {failed} failed in {args.compare[0]}; "
              f"{len(diffs)} difference(s)")
        if args.rtol is not None:
            both = [label for label in a.keys() & b.keys() if a[label]["converged"] and b[label]["converged"]]
            worst = max((relative_x_difference(a[label], b[label]) for label in both), default=0.0)
            print(f"largest relative x difference on {len(both)} commonly converged: {worst:.3g}")
            print(f"differences by kind: {kind_counts(diffs)}")
        return 1 if diffs else 0

    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from structured_iep import continuation_solve

    answers = {label: answer(continuation_solve(spec)) for label, spec in instances()}
    pathlib.Path(args.out).write_text(json.dumps(answers, indent=1) + "\n")
    failed = sum(not r["converged"] for r in answers.values())
    print(f"{len(answers)} instances: {len(answers) - failed} converged, {failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
