"""Command-line front end: seed, solve, verify, jacobian.

Exit codes are a stable contract:
    0  success
    2  file/parse error
    3  domain invariant violation (including a numerically multiple proper value)
    4  solver did not converge (the report at the last converged tau is still written)
    5  non-real spectrum at the evaluation point (for solve: no tau converged)
    6  verification failure
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvariantViolation,
    LeadingCoefficientError,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    ProblemFormatError,
)
from .matpoly import proper_values
from .problems import load_polynomial, load_problem, load_unknowns, polynomial_to_doc, spec_to_config
from .seed import seed_unknowns
from .sensitivity import jacobian_x, seed_vandermonde_check
from .solver import assemble, continuation_solve, verify

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NON_REAL = 5
EXIT_VERIFY_FAIL = 6


def _finite_or_null(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(doc: dict, out: str | None):
    text = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _summary_matrix(name: str, M: np.ndarray):
    print(name)
    for row in M:
        print("  " + "  ".join(f"{v:.15g}" for v in row))


def cmd_seed(args) -> int:
    # no Newton iteration runs here, so --tol and --max-iter are ignored
    spec = load_problem(args.problem)
    P = spec.seed()
    decomp = proper_values(P)
    doc = {
        "config": spec_to_config(spec),
        **polynomial_to_doc(P),
        "spectrum": decomp.values.tolist(),
    }
    _emit(doc, args.out)
    if not args.quiet and args.out:
        for s, c in enumerate(P.coeffs):
            _summary_matrix(f"coefficient {s}:", c)
    return 0


def cmd_solve(args) -> int:
    spec = load_problem(args.problem, overrides={"newton_tol": args.tol, "max_iter": args.max_iter})
    report = continuation_solve(spec)
    doc = {
        "config": spec_to_config(spec),
        **polynomial_to_doc(report.polynomial),
        "residual": report.residual,
        "converged": report.converged,
        "structure_ok": report.structure_ok,
        "structure_detail": list(report.structure_detail),
        "leading_ok": report.leading_ok,
        "continuation_path": list(report.continuation_path),
        "iterations": [
            {"iteration": t.iteration, "residual": t.residual, "step_norm": t.step_norm}
            for t in report.iterations
        ],
        "failure": report.failure,
    }
    _emit(doc, args.out)
    if not args.quiet and args.out:
        for s, c in enumerate(report.polynomial.coeffs):
            _summary_matrix(f"coefficient {s}:", c)
        print(f"residual: {report.residual:.15g}")
        print(f"converged: {report.converged}  structure_ok: {report.structure_ok}")
    if report.converged:
        return 0
    if report.failure and "NonRealSpectrum" in report.failure and not report.continuation_path:
        return EXIT_NON_REAL
    return EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    # --tol is the value tolerance here; no Newton iteration runs, so --max-iter is ignored
    spec = load_problem(args.problem)
    P = load_polynomial(args.polynomial)
    tol = args.tol if args.tol is not None else 1e-8
    report = verify(P, spec, value_tol=tol)
    doc = {
        "config": spec_to_config(spec),
        "residual": report.residual,
        "values": report.values.tolist(),
        "structure_ok": report.structure_ok,
        "structure_detail": list(report.structure_detail),
        "leading_ok": report.leading_ok,
        "passed": report.passed,
        "failure": report.failure,
    }
    _emit(doc, args.out)
    if not args.quiet and args.out:
        print(f"residual: {report.residual:.15g}")
        print(f"passed: {report.passed}" + (f"  ({report.failure})" if report.failure else ""))
    return 0 if report.passed else EXIT_VERIFY_FAIL


def cmd_jacobian(args) -> int:
    # no Newton iteration runs here, so --tol and --max-iter are ignored
    spec = load_problem(args.problem)
    at_seed = args.at == "seed"
    if at_seed:
        x = seed_unknowns(spec.spectrum, spec.lead)
        tau = 0.0
    else:
        x = load_unknowns(args.at, spec.n * spec.k)
        tau = 1.0
    P = assemble(x, spec, tau=tau)
    decomp = proper_values(P)
    J = jacobian_x(decomp)
    doc = {
        "config": spec_to_config(spec),
        "at": "seed" if at_seed else args.at,
        "jacobian": J.tolist(),
    }
    if at_seed:
        check = seed_vandermonde_check(spec.spectrum, decomp, J)
        doc["condition"] = check["condition"]
        doc["vandermonde"] = {
            "max_entry_error": check["max_entry_error"],
            "max_offblock": check["max_offblock"],
            "passed": check["max_entry_error"] <= 1e-12 and check["max_offblock"] <= 1e-12,
        }
    else:
        doc["condition"] = float(np.linalg.cond(J))
    _emit(doc, args.out)
    if not args.quiet and args.out:
        print(f"condition: {doc['condition']:.15g}")
        if at_seed:
            print(f"vandermonde check passed: {doc['vandermonde']['passed']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="structured-iep",
        description="Construct symmetric matrix polynomials with prescribed "
                    "real spectrum and prescribed coefficient graphs.",
    )
    p.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (Newton tolerance for solve, value tolerance for verify; "
                        "ignored by seed and jacobian)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="Newton iteration cap (ignored by seed, verify and jacobian)")
    p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("seed", help="build and verify the diagonal seed polynomial")
    ps.add_argument("problem")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_seed)

    pv = sub.add_parser("solve", help="solve the structured inverse problem")
    pv.add_argument("problem")
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_solve)

    pf = sub.add_parser("verify", help="verify a polynomial file against a problem file")
    pf.add_argument("polynomial")
    pf.add_argument("problem")
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_verify)

    pj = sub.add_parser("jacobian", help="spectral Jacobian and seed structure check")
    pj.add_argument("problem")
    pj.add_argument("--at", default="seed", metavar="seed|X_FILE",
                    help="evaluation point: 'seed' or a JSON file with the kn diagonal unknowns")
    pj.add_argument("--out", default=None)
    pj.set_defaults(func=cmd_jacobian)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow is caught where it matters (eig and eigh reject
        # non-finite input, the seed checks its coefficients), so numpy's
        # warnings would only put noise ahead of the error line
        with np.errstate(all="ignore"):
            return args.func(args)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvariantViolation, LeadingCoefficientError, NearDegenerate, DegenerateDenominator,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NonRealSpectrum as exc:
        print(f"error: non-real spectrum: {exc}", file=sys.stderr)
        return EXIT_NON_REAL
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
