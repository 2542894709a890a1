#!/usr/bin/env python3
"""Count the eigensolves and Newton trials of the solver on the benchmark
instance sets.

    python3 scripts/eigensolve_counts.py

Solves, with continuation_solve of the package in this checkout's src/, the
instances that perfbench/workloads.py generates (its generators are only
read): the two bundled problems, the ``corpus`` set (generator seed 1) and
the ``sweep`` set.  For each set it prints the eigensolves by kind (eig,
eigvals, eigh, eigvalsh), counted through a stand-in for matpoly.lapack,
the package's one LAPACK kernel, and the Newton solves, trials and
refused steps that the reports' corrector records hold (a trial is a
spectral_map call of newton_solve after its corrector's start, the
record's ``trials``; a refused step is a corrector whose ``ended`` is
"step" with NoConvergence: newton_solve's step tests ended it before its
trial).  The benchmark's tracer wraps numpy.linalg.eig, which the
kernel does not call, so its eig count reads 0.  The last column,
events_per_map, is the number of Python and C function calls that
sys.setprofile sees over the whole solves (after one warm-up solve of
each instance), per spectral_map: the machine-independent call overhead
of a Newton iteration.  Importing this
module changes neither os.environ nor sys.path: only main() does, before
it imports numpy.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("eig", "eigvals", "eigh", "eigvalsh")
COST_COLUMNS = ("newton_solves",) + KINDS + ("trials", "refused_steps")
COLUMNS = ("instances",) + COST_COLUMNS
PROFILE_EVENTS = ("call", "c_call")


def instance_sets() -> dict:
    """Set name -> list of specs; perfbench/ must be on sys.path."""
    import workloads

    return {
        "bundled": list(workloads.load_bundled().values()),
        "corpus": workloads.corpus_specs(),
        "sweep": workloads.sweep_specs(),
    }


def counting_kernel(calls: dict):
    """A stand-in for matpoly.lapack as it is now: each call of a kind in
    calls adds one to calls[kind], then runs that kernel."""
    from structured_iep import matpoly

    kernel = matpoly.lapack

    def counted(kind, *operands):
        if kind in calls:
            calls[kind] += 1
        return kernel(kind, *operands)

    return counted


def refused_steps(correctors) -> int:
    """The Newton steps that newton_solve's step tests refused: correctors
    that ended at a step ("step") with NoConvergence, not a
    SingularJacobian or DegenerateDenominator."""
    from structured_iep import NoConvergence

    return sum(c.ended == "step" and c.kind is NoConvergence for c in correctors)


def solve_counted(spec) -> tuple:
    """(report, cost) of continuation_solve on spec, where the cost holds
    COST_COLUMNS: the Newton solves, trials and refused steps of the
    report's Corrector records, and the eigensolves of matpoly.lapack by
    kind."""
    from structured_iep import continuation_solve, matpoly

    calls, kernel = dict.fromkeys(KINDS, 0), matpoly.lapack
    matpoly.lapack = counting_kernel(calls)
    try:
        report = continuation_solve(spec)
    finally:
        matpoly.lapack = kernel
    correctors = report.correctors
    return report, {"newton_solves": len(correctors), **calls, "trials": sum(c.trials for c in correctors),
                    "refused_steps": refused_steps(correctors)}


def counts(specs) -> dict:
    """COLUMNS for continuation_solve on each spec: the instances, and the
    sums of their costs (solve_counted)."""
    costs = [solve_counted(spec)[1] for spec in specs]
    return {"instances": len(specs), **{c: sum(cost[c] for cost in costs) for c in COST_COLUMNS}}


def events_per_map(specs) -> float:
    """Profile events (PROFILE_EVENTS: Python and C function calls, as
    sys.setprofile reports them) over continuation_solve on each spec,
    divided by the spectral_map calls among them.  Each spec is solved once
    first, so what a spec or the package builds on first use is not
    counted, and nothing is wrapped, so no call of the count's own is."""
    from structured_iep import continuation_solve, solver

    for spec in specs:
        continuation_solve(spec)
    target = solver.spectral_map.__code__
    events = maps = 0

    def profile(frame, event, arg):
        nonlocal events, maps
        if event in PROFILE_EVENTS:
            events += 1
            maps += frame.f_code is target and event == "call"

    sys.setprofile(profile)
    try:
        for spec in specs:
            continuation_solve(spec)
    finally:
        sys.setprofile(None)
    return events / maps


def main() -> int:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(f"{'set':<8}" + "".join(f"{c:>14}" for c in COLUMNS) + f"{'events_per_map':>16}")
    for name, specs in instance_sets().items():
        row = counts(specs)
        print(f"{name:<8}" + "".join(f"{row[c]:>14}" for c in COLUMNS) + f"{events_per_map(specs):>16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
