#!/usr/bin/env python3
"""Stress the solver on random instances: random graphs, random distinct
targets, small off-diagonal magnitude.  Prints a per-instance summary and a
final success count.

    python3 scripts/random_instances.py --count 50 --epsilon 0.05 --seed 0

Targets and graphs come from the generators of the benchmark corpus in
perfbench/workloads.py, which is only read."""

import argparse
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from structured_iep import LeadingDiagonal, ProblemSpec, TargetSpectrum, continuation_solve  # noqa: E402
from workloads import _corpus_graph, _corpus_targets  # noqa: E402


def random_spec(rng, n, k, epsilon):
    """One instance drawn as the benchmark corpus draws its instances."""
    return ProblemSpec(
        spectrum=TargetSpectrum(values=_corpus_targets(rng, n, k), n=n, k=k),
        lead=LeadingDiagonal(alpha_k=rng.uniform(0.5, 2.0, size=n)),
        graphs=tuple(_corpus_graph(rng, n) for _ in range(k)),
        epsilon=epsilon,
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    ok = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        spec = random_spec(rng, n, k, args.epsilon)
        rep = continuation_solve(spec)
        status = "ok" if rep.converged and rep.structure_ok else "FAIL"
        ok += status == "ok"
        print(f"[{i:3d}] n={n} k={k} res={rep.residual:.2e} "
              f"steps={len(rep.continuation_path)} {status}")
    print(f"{ok}/{args.count} converged with correct structure "
          f"in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
