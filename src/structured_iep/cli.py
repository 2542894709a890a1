"""Command-line front end: seed, solve, verify, jacobian.

Exit codes are a stable contract:
    0  success
    2  file/parse error, or an --out file that cannot be written
    3  domain invariant violation (including a numerically multiple proper value)
    4  solver did not converge, overflow included (the report at the last converged tau is still written)
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
    NearDegenerate,
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
    """Write doc as JSON to the file ``out``, or to stdout; a file that
    cannot be written raises ProblemFormatError."""
    text = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ProblemFormatError(f"cannot write --out file {out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _coefficient_lines(P) -> list[str]:
    lines = []
    for s, c in enumerate(P.coeffs):
        lines.append(f"coefficient {s}:")
        lines += ["  " + "  ".join(f"{v:.15g}" for v in row) for row in c]
    return lines


# Each command returns (report, summary lines, exit code); main writes both.


def cmd_seed(args):
    spec = load_problem(args.problem)
    P = spec.seed()
    decomp = proper_values(P)
    doc = {
        "config": spec_to_config(spec),
        **polynomial_to_doc(P),
        "spectrum": decomp.values.tolist(),
    }
    return doc, _coefficient_lines(P), 0


def cmd_solve(args):
    spec = load_problem(args.problem)
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
    summary = [
        *_coefficient_lines(report.polynomial),
        f"residual: {report.residual:.15g}",
        f"converged: {report.converged}  structure_ok: {report.structure_ok}",
    ]
    # exit 5: no tau converged, and the last corrector's start was not real
    last = report.correctors[-1]
    non_real = last.kind is NonRealSpectrum and last.ended == "start" and not report.continuation_path
    return doc, summary, 0 if report.converged else EXIT_NON_REAL if non_real else EXIT_NO_CONVERGENCE


def cmd_verify(args):
    spec = load_problem(args.problem)
    P = load_polynomial(args.polynomial)
    report = verify(P, spec, value_tol=args.tol)
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
    summary = [
        f"residual: {report.residual:.15g}",
        f"passed: {report.passed}" + (f"  ({report.failure})" if report.failure else ""),
    ]
    return doc, summary, 0 if report.passed else EXIT_VERIFY_FAIL


def cmd_jacobian(args):
    spec = load_problem(args.problem)
    if args.at == "seed":
        x, tau = seed_unknowns(spec.spectrum, spec.lead), 0.0
    else:
        x, tau = load_unknowns(args.at, spec.n * spec.k), 1.0
    decomp = proper_values(assemble(x, spec, tau=tau))
    J = jacobian_x(decomp)
    doc = {
        "config": spec_to_config(spec),
        "at": args.at,
        "jacobian": J.tolist(),
    }
    if args.at != "seed":
        doc["condition"] = float(np.linalg.cond(J))
        return doc, [f"condition: {doc['condition']:.15g}"], 0
    check = seed_vandermonde_check(spec.spectrum, decomp, J)
    doc["condition"] = check["condition"]
    doc["vandermonde"] = {key: check[key] for key in ("max_entry_error", "max_offblock", "passed")}
    return doc, [f"condition: {check['condition']:.15g}", f"vandermonde check passed: {check['passed']}"], 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="structured-iep",
        description="Construct symmetric matrix polynomials with prescribed "
                    "real spectrum and prescribed coefficient graphs.",
    )
    p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("seed", help="build the diagonal seed polynomial and its spectrum")
    ps.add_argument("problem")
    ps.set_defaults(func=cmd_seed)

    pv = sub.add_parser("solve", help="solve the structured inverse problem")
    pv.add_argument("problem")
    pv.set_defaults(func=cmd_solve)

    pf = sub.add_parser("verify", help="verify a polynomial file against a problem file")
    pf.add_argument("polynomial")
    pf.add_argument("problem")
    pf.add_argument("--tol", type=float, default=None,
                    help="value tolerance (default: max(1e-8, the problem's Newton tolerance))")
    pf.set_defaults(func=cmd_verify)

    pj = sub.add_parser("jacobian", help="spectral Jacobian and seed structure check")
    pj.add_argument("problem")
    pj.add_argument("--at", default="seed", metavar="seed|X_FILE",
                    help="evaluation point: 'seed' or a JSON file with the kn diagonal unknowns")
    pj.set_defaults(func=cmd_jacobian)
    for command in sub.choices.values():
        command.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow is caught where it matters (eig and eigvals reject
        # non-finite input, the pencil path checks its values, the seed
        # checks its coefficients), so numpy's warnings would only put
        # noise ahead of the error line
        with np.errstate(all="ignore"):
            doc, summary, code = args.func(args)
        _emit(doc, args.out)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvariantViolation, NearDegenerate, DegenerateDenominator, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NonRealSpectrum as exc:
        print(f"error: non-real spectrum: {exc}", file=sys.stderr)
        return EXIT_NON_REAL
    if args.out and not args.quiet:
        for line in summary:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
