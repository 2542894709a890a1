#!/usr/bin/env python3
"""Solve the two bundled demo problems and print the reconstructed matrices.

path4:   serially linked 4-mass chain; both non-leading coefficients
         tridiagonal (path graph), off-diagonals fixed to 0.5.
linked4: generally linked 4-mass system; stiffness pattern has a chord,
         damping pattern is sparser.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from structured_iep import continuation_solve, proper_values
from structured_iep.problems import load_problem

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(name):
    spec = load_problem(str(ROOT / "problems" / f"{name}.json"))
    t0 = time.perf_counter()
    rep = continuation_solve(spec)
    dt = time.perf_counter() - t0
    print(f"=== {name} ===")
    print(f"converged: {rep.converged}  residual: {rep.residual:.3e}  "
          f"continuation steps: {len(rep.continuation_path)}  time: {dt * 1e3:.1f} ms")
    for s, c in enumerate(rep.polynomial.coeffs):
        print(f"coefficient {s}:")
        for row in c:
            print("  " + "  ".join(f"{v: .15g}" for v in row))
    vals = proper_values(rep.polynomial).values
    print("recovered proper values:", "  ".join(f"{v:.12g}" for v in vals))
    print()


if __name__ == "__main__":
    for name in ("path4", "linked4"):
        run(name)
