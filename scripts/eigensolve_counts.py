#!/usr/bin/env python3
"""Count the eigensolves and Newton trials of the solver on the benchmark
instance sets.

    python3 scripts/eigensolve_counts.py
    python3 scripts/eigensolve_counts.py --heldout

Solves, with continuation_solve of the package in this checkout's src/, the
instances that perfbench/workloads.py generates (its generators are only
read): the two bundled problems, the ``corpus`` set (generator seed 1) and
the ``sweep`` set, and with --heldout the held-out draw, the ``corpus``
sets of generator seeds HELDOUT_SEEDS (900 instances that no tuning has
used).  For each set it prints the eigensolves by kind (eig,
eigvals, eigh, eigvalsh), counted through a stand-in for matpoly.lapack,
the package's one LAPACK kernel, and the Newton solves, trials and
refused steps that the reports' corrector records hold (a trial is a
spectral_map call of newton_solve after its corrector's start, the
record's ``trials``; a refused step is a corrector whose ``ended`` is
"step" with NoConvergence: newton_solve's step tests ended it before its
trial), and the order of each solve's seed series, len(c) + 1 of the
solver's _seed_series, recorded through a stand-in for it: where the
series stopped.  Then, from the same records, the instances that
converged and the correctors that converged at their start, with no
trial.  The
benchmark's tracer wraps numpy.linalg.eig, which the
kernel does not call, so its eig count reads 0.  The last column,
events_per_map, is the number of Python and C function calls that
sys.setprofile sees over the whole solves (after one warm-up solve of
each instance), per spectral_map: the machine-independent call overhead
of a Newton iteration.  Importing this
module changes neither os.environ nor sys.path: only main() does, before
it imports numpy.
"""

import argparse
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("eig", "eigvals", "eigh", "eigvalsh")
COST_COLUMNS = ("newton_solves",) + KINDS + ("trials", "refused_steps", "series_order")
# read from the reports, kept out of the per-instance costs of tests/costs.json
OUTCOME_COLUMNS = ("converged", "start_converged")
COLUMNS = ("instances",) + COST_COLUMNS + OUTCOME_COLUMNS
PROFILE_EVENTS = ("call", "c_call")
HELDOUT_SEEDS = range(4, 14)  # corpus generator seeds of the held-out draw


def heldout_specs() -> list:
    """The held-out draw: the ``corpus`` set of each generator seed in
    HELDOUT_SEEDS, in that order; perfbench/ must be on sys.path."""
    import workloads

    specs = []
    for seed in HELDOUT_SEEDS:
        saved, workloads.CORPUS_SEED = workloads.CORPUS_SEED, seed
        try:
            specs += workloads.corpus_specs()
        finally:
            workloads.CORPUS_SEED = saved
    return specs


def instance_sets(heldout: bool = False) -> dict:
    """Set name -> list of specs, the held-out draw last when ``heldout``;
    perfbench/ must be on sys.path."""
    import workloads

    sets = {
        "bundled": list(workloads.load_bundled().values()),
        "corpus": workloads.corpus_specs(),
        "sweep": workloads.sweep_specs(),
    }
    if heldout:
        sets["heldout"] = heldout_specs()
    return sets


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


def recording_series(orders: list):
    """A stand-in for solver._seed_series as it is now: each call appends
    its series' order, len(c) + 1, to orders, then returns its result."""
    from structured_iep import solver

    series = solver._seed_series

    def recorded(spec):
        result = series(spec)
        orders.append(len(result[0]) + 1)
        return result

    return recorded


def refused_steps(correctors) -> int:
    """The Newton steps that newton_solve's step tests refused: correctors
    that ended at a step ("step") with NoConvergence, not a
    SingularJacobian or DegenerateDenominator."""
    from structured_iep import NoConvergence

    return sum(c.ended == "step" and c.kind is NoConvergence for c in correctors)


def solve_counted(spec) -> tuple:
    """(report, cost) of continuation_solve on spec, where the cost holds
    COST_COLUMNS: the Newton solves, trials and refused steps of the
    report's Corrector records, the eigensolves of matpoly.lapack by kind,
    and the order of the solve's one seed series."""
    from structured_iep import continuation_solve, matpoly, solver

    calls, orders = dict.fromkeys(KINDS, 0), []
    kernel, series = matpoly.lapack, solver._seed_series
    matpoly.lapack, solver._seed_series = counting_kernel(calls), recording_series(orders)
    try:
        report = continuation_solve(spec)
    finally:
        matpoly.lapack, solver._seed_series = kernel, series
    correctors = report.correctors
    return report, {"newton_solves": len(correctors), **calls, "trials": sum(c.trials for c in correctors),
                    "refused_steps": refused_steps(correctors), "series_order": sum(orders)}


def counts(specs) -> dict:
    """COLUMNS for continuation_solve on each spec: the instances, the sums
    of their costs (solve_counted), the instances that converged, and the
    correctors that converged at their start, with no trial."""
    solved = [solve_counted(spec) for spec in specs]
    return {"instances": len(specs), **{c: sum(cost[c] for _, cost in solved) for c in COST_COLUMNS},
            "converged": sum(report.converged for report, _ in solved),
            "start_converged": sum(c.converged and not c.trials for report, _ in solved for c in report.correctors)}


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heldout", action="store_true", help="add the held-out draw as a fourth set")
    args = parser.parse_args()
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(f"{'set':<8}" + "".join(f"{c:>16}" for c in COLUMNS) + f"{'events_per_map':>16}")
    for name, specs in instance_sets(args.heldout).items():
        row = counts(specs)
        print(f"{name:<8}" + "".join(f"{row[c]:>16}" for c in COLUMNS) + f"{events_per_map(specs):>16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
