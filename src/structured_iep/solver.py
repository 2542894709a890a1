"""Newton correction of diagonal unknowns with off-diagonal continuation.

The unknowns are exactly the kn diagonal entries of the non-leading
coefficients; the prescribed off-diagonal values are held fixed (they are
the perturbation the Newton step must compensate).  A direct solve at full
off-diagonal strength can leave the real-spectrum regime, in which case the
off-diagonals are ramped in by predictor-corrector continuation in their
scale tau: each step predicts along the tangent of the solution curve and
corrects with a capped Newton solve, keeping every converged step; the step
halves on failure and doubles on success (continuation_solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvariantViolation,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    SingularJacobian,
)
from .graphs import Graph, graph_of_matrix, matrix_of_graph
from .matpoly import CompanionTemplate, MatrixPolynomial, SEP_TOL_REL, proper_values
from .seed import LeadingDiagonal, TargetSpectrum, seed_coefficients, seed_diagonals
from .sensitivity import jacobian_x, tau_derivative

MAX_CONTINUATION_STEPS = 64  # smallest continuation step is 1/MAX_CONTINUATION_STEPS
MAX_BACKTRACKS = 2  # step lengths 1, 1/2, 1/4: see newton_solve
MAX_CORRECTOR_ITER = 8  # Newton iteration cap for correctors at tau < 1


@dataclass(frozen=True)
class SolverControls:
    newton_tol: float | None = None  # None: 1e-11 * spectrum diameter
    max_iter: int = 50

    def __post_init__(self):
        if self.newton_tol is not None and not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise InvariantViolation("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise InvariantViolation("max_iter must be at least 1")

    def resolved_tol(self, spectrum: TargetSpectrum) -> float:
        if self.newton_tol is not None:
            return self.newton_tol
        return 1e-11 * max(spectrum.diameter, 1.0)


@dataclass(frozen=True)
class ProblemSpec:
    spectrum: TargetSpectrum
    lead: LeadingDiagonal
    graphs: tuple[Graph, ...]  # G_0 .. G_{k-1}
    epsilon: float = 0.5
    offdiag_values: tuple[np.ndarray, ...] | None = None  # default: all = epsilon
    controls: SolverControls = field(default_factory=SolverControls)

    def __post_init__(self):
        n, k = self.spectrum.n, self.spectrum.k
        if len(self.graphs) != k:
            raise InvariantViolation(f"need {k} graphs, got {len(self.graphs)}")
        for s, g in enumerate(self.graphs):
            if g.n != n:
                raise InvariantViolation(f"graph {s} has {g.n} vertices, expected {n}")
        if self.lead.alpha_k.shape != (n,):
            raise InvariantViolation(f"leading diagonal has wrong length {self.lead.alpha_k.shape[0]}")
        if not np.isfinite(self.epsilon):
            raise InvariantViolation("epsilon must be finite")
        if self.offdiag_values is None:
            # epsilon == 0 is the degenerate "echo the seed" case; any other
            # zero off-diagonal would silently break the prescribed structure
            ys = tuple(np.full(g.num_edges, float(self.epsilon)) for g in self.graphs)
        else:
            ys = tuple(np.asarray(y, dtype=float) for y in self.offdiag_values)
            for s, (y, g) in enumerate(zip(ys, self.graphs)):
                if y.shape != (g.num_edges,):
                    raise InvariantViolation(
                        f"off-diagonal vector {s} has length {y.shape[0] if y.ndim == 1 else y.shape}, "
                        f"expected {g.num_edges}"
                    )
            if any(np.any((y == 0.0) | ~np.isfinite(y)) for y in ys):
                raise InvariantViolation("prescribed off-diagonal values must all be finite and nonzero")
        object.__setattr__(self, "offdiag_values", ys)

    @property
    def n(self) -> int:
        return self.spectrum.n

    @property
    def k(self) -> int:
        return self.spectrum.k

    def seed(self) -> MatrixPolynomial:
        return seed_coefficients(self.spectrum, self.lead)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    residual: float
    step_norm: float


@dataclass(frozen=True)
class SolveReport:
    polynomial: MatrixPolynomial
    x: np.ndarray
    residual: float
    iterations: tuple[IterationRecord, ...]
    structure_ok: bool
    structure_detail: tuple[bool, ...]  # per non-leading coefficient
    leading_ok: bool
    continuation_path: tuple[float, ...]
    converged: bool
    failure: str | None = None


def assemble(x: np.ndarray, spec: ProblemSpec, tau: float = 1.0) -> MatrixPolynomial:
    """Build the polynomial from diagonal unknowns x (s-major) with the
    prescribed off-diagonals scaled by tau; leading coefficient is fixed."""
    n, k = spec.n, spec.k
    x = np.asarray(x, dtype=float)
    if x.shape != (n * k,):
        raise ValueError(f"x has shape {x.shape}, expected ({n * k},)")
    coeffs = []
    for s in range(k):
        coeffs.append(matrix_of_graph(spec.graphs[s], x[s * n:(s + 1) * n], tau * spec.offdiag_values[s]))
    coeffs.append(np.diag(spec.lead.alpha_k))
    return MatrixPolynomial(tuple(coeffs))


def _sep_tol(spec: ProblemSpec) -> float:
    return SEP_TOL_REL * max(spec.spectrum.diameter, 1.0)


def companion_template(spec: ProblemSpec, tau: float = 1.0) -> CompanionTemplate:
    """The companion matrix of assemble(0, spec, tau), with the problem's
    separation tolerance: what every spectral_map at this tau shares."""
    return CompanionTemplate.of(assemble(np.zeros(spec.n * spec.k), spec, tau), sep_tol=_sep_tol(spec))


def spectral_map(x: np.ndarray, spec: ProblemSpec, tau: float = 1.0,
                 companion: CompanionTemplate | None = None):
    """Ascending proper values of assemble(x, spec, tau), bitwise, with the
    checks of proper_values at a separation tolerance of SEP_TOL_REL times
    the target spectrum's diameter.

    The kn unknowns are written into a copy of ``companion`` (default:
    companion_template(spec, tau), built here), so no polynomial is
    assembled or linearized: newton_solve builds the template once per
    solve and passes it to every trial.  The decomposition carries no
    polynomial; attach assemble(x, spec, tau) before reading its vectors.
    """
    if companion is None:
        companion = companion_template(spec, tau)
    return companion.proper_values(x)


def match_targets(current: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, bool]:
    """Match ascending current values to sorted targets.

    On the real line sorted order is a minimum-total-distance matching, so
    this is the identity on sorted order.  Returns (perm, False): row q is
    matched to decomposition position perm[q], and no other assignment was
    used.
    """
    current = np.asarray(current, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if current.shape != targets.shape:
        raise ValueError("length mismatch")
    return np.arange(len(current)), False


def _structure_verdict(P: MatrixPolynomial, spec: ProblemSpec) -> tuple[tuple[bool, ...], bool]:
    per_coeff = []
    for s in range(spec.k):
        per_coeff.append(graph_of_matrix(P.coeffs[s], 0.0) == spec.graphs[s])
    leading_ok = bool(np.array_equal(P.coeffs[spec.k], np.diag(spec.lead.alpha_k)))
    return tuple(per_coeff), leading_ok


def _report(spec, x, tau_path, trace, residual, converged, failure=None, tau=1.0):
    P = assemble(x, spec, tau)
    detail, leading_ok = _structure_verdict(P, spec)
    return SolveReport(
        polynomial=P,
        x=np.array(x, copy=True),
        residual=float(residual),
        iterations=tuple(trace),
        structure_ok=all(detail) and leading_ok,
        structure_detail=detail,
        leading_ok=leading_ok,
        continuation_path=tuple(tau_path),
        converged=converged,
        failure=failure,
    )


def newton_solve(
    spec: ProblemSpec,
    x0: np.ndarray | None = None,
    tau: float = 1.0,
    max_iter: int | None = None,
) -> SolveReport:
    """Damped Newton on the diagonal unknowns at fixed off-diagonal scale tau.

    Runs at most ``max_iter`` iterations (default controls.max_iter).  The
    step is the analytic-Jacobian Newton step (jacobian_x), taken at length
    1, 1/2, 1/4 (MAX_BACKTRACKS = 2 halvings) until the residual
    infinity-norm strictly decreases; otherwise the solve raises
    NoConvergence ("backtracking stalled").  The floor is 1/4 because a
    corrector that needs more damping than that is read as a continuation
    step that is too long: continuation_solve then halves the step in tau,
    which is cheaper than creeping along the Newton direction.  On the
    benchmark instances every converged solve takes its steps at length 1
    or 1/2.  A solve therefore makes at most 1 + max_iter * (MAX_BACKTRACKS
    + 1) spectral_map evaluations.

    The residual is values - sorted targets, both ascending (sorted order
    is the matching).  Every spectral_map patches one companion template
    built per solve; the polynomial is assembled, and proper vectors
    refined, only for the iterates that build a Jacobian and for the
    report.  A failed solve raises NoConvergence / SingularJacobian /
    NonRealSpectrum / NearDegenerate and builds no report.
    """
    ctl = spec.controls
    max_iter = ctl.max_iter if max_iter is None else max_iter
    tol = ctl.resolved_tol(spec.spectrum)
    targets = spec.spectrum.sorted_values()
    x = seed_diagonals(spec.seed()) if x0 is None else np.array(x0, dtype=float, copy=True)
    trace = []

    companion = companion_template(spec, tau)
    decomp = spectral_map(x, spec, tau, companion)  # NonRealSpectrum propagates: continuation trigger
    res = decomp.values - targets
    rnorm = float(np.max(np.abs(res)))
    trace.append(IterationRecord(0, rnorm, 0.0))

    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return _report(spec, x, [tau], trace, rnorm, True, tau=tau)
        P = assemble(x, spec, tau)
        J = jacobian_x(P, replace(decomp, polynomial=P))
        try:
            dx = np.linalg.solve(J, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton linear solve failed at iteration {it}: {exc}") from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobian(f"Newton step non-finite at iteration {it}")
        damp = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            x_try = x - damp * dx
            try:
                d_try = spectral_map(x_try, spec, tau, companion)
            except (NonRealSpectrum, NearDegenerate):
                damp *= 0.5
                continue
            r_try = d_try.values - targets
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rnorm:
                x, decomp, res, rnorm = x_try, d_try, r_try, rn_try
                trace.append(IterationRecord(it, rnorm, float(np.linalg.norm(damp * dx))))
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            raise NoConvergence(f"backtracking stalled at residual {rnorm:.3g} (iteration {it})")
    if rnorm <= tol:
        return _report(spec, x, [tau], trace, rnorm, True, tau=tau)
    raise NoConvergence(f"residual {rnorm:.3g} > tol {tol:.3g} after {max_iter} iterations")


def _tangent(spec: ProblemSpec, x: np.ndarray, tau: float) -> np.ndarray:
    """dx/dtau of the solution curve at a converged (tau, x): -J^{-1} dlambda/dtau,
    or zero when the tangent cannot be formed (the predictor then is x)."""
    P = assemble(x, spec, tau)
    decomp = proper_values(P, sep_tol=_sep_tol(spec))
    ramp = MatrixPolynomial(tuple(
        matrix_of_graph(g, np.zeros(spec.n), y) for g, y in zip(spec.graphs, spec.offdiag_values)
    ))
    try:
        J = jacobian_x(P, decomp)
        xdot = -np.linalg.solve(J, tau_derivative(P, decomp, ramp))
    except (np.linalg.LinAlgError, DegenerateDenominator):
        return np.zeros_like(x)
    return xdot if np.all(np.isfinite(xdot)) else np.zeros_like(x)


def continuation_solve(spec: ProblemSpec) -> SolveReport:
    """Adaptive predictor-corrector continuation in the off-diagonal scale tau.

    Keeps the last converged (tau, x), starting from the diagonal seed at
    tau = 0 with a first step of dtau = 1: the full problem is tried first.
    Each step predicts x + dtau * dx/dtau along the tangent of the solution
    curve (zero at the seed, where every proper vector is a unit vector)
    and corrects with newton_solve: at most min(max_iter,
    MAX_CORRECTOR_ITER) iterations below tau = 1, controls.max_iter at
    tau = 1.  A failed corrector halves the step and retries from the last
    converged point; a converged one doubles it, clipped to 1 - tau.  The
    solve gives up once the step falls below 1/MAX_CONTINUATION_STEPS.

    Every step but the last advances tau by at least 1/M (M =
    MAX_CONTINUATION_STEPS) and every failure halves the step, so a solve
    costs at most 2M - 1 + log2(M) = 133 Newton solves, and a problem on
    which no step converges costs log2(M) + 1 = 7.  Each Newton solve makes
    at most 1 + controls.max_iter * (MAX_BACKTRACKS + 1) spectral_map
    evaluations (151 by default), so a solve makes at most 133 * 151 =
    20,083 with the default controls.

    continuation_path holds the converged tau values, ascending (to 1 on
    success).  On failure the report is the last converged (tau, x), with
    the residual of its last iteration; when no tau converged that is the
    seed at tau = 0, with an empty path and residual inf.  Its failure reads
    "<exception kind> at tau=<tau>: <detail>", for the last corrector tried.
    """
    ctl = spec.controls
    x = seed_diagonals(spec.seed())
    xdot = np.zeros_like(x)
    tau, dtau = 0.0, 1.0
    path, trace = [], []
    while True:
        # absorb rounding in tau + dtau so the last step lands exactly on 1
        tau_next = 1.0 if tau + dtau > 1.0 - 1e-12 else tau + dtau
        max_iter = None if tau_next == 1.0 else min(ctl.max_iter, MAX_CORRECTOR_ITER)
        try:
            rep = newton_solve(spec, x0=x + (tau_next - tau) * xdot, tau=tau_next, max_iter=max_iter)
        except (NoConvergence, NonRealSpectrum, NearDegenerate, SingularJacobian,
                DegenerateDenominator) as exc:
            dtau *= 0.5
            if dtau >= 1.0 / MAX_CONTINUATION_STEPS:
                continue
            # the last converged (tau, x): the seed at tau = 0 when none did
            residual = trace[-1].residual if path else np.inf
            return _report(spec, x, path, trace, residual, False,
                           failure=f"{type(exc).__name__} at tau={tau_next:.6g}: {exc}", tau=tau)
        x, tau = rep.x, tau_next
        path.append(tau)
        trace.extend(rep.iterations)
        if tau == 1.0:
            return replace(rep, continuation_path=tuple(path), iterations=tuple(trace))
        xdot = _tangent(spec, x, tau)
        dtau = min(2.0 * dtau, 1.0 - tau)


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    values: np.ndarray
    structure_detail: tuple[bool, ...]
    structure_ok: bool
    leading_ok: bool
    passed: bool
    failure: str | None = None


def verify(P: MatrixPolynomial, spec: ProblemSpec, value_tol: float = 1e-8) -> VerifyReport:
    """Independent check of a candidate polynomial against the problem:
    recompute proper values, compare to sorted targets, check every
    coefficient's graph and the leading coefficient.  Raises
    InvariantViolation when P's size n or degree k is not the problem's, or
    a coefficient is not finite and symmetric."""
    if (P.n, P.degree) != (spec.n, spec.k):
        raise InvariantViolation(
            f"polynomial has n={P.n}, k={P.degree}; the problem has n={spec.n}, k={spec.k}"
        )
    if not all(np.all(np.isfinite(c)) and np.array_equal(c, c.T) for c in P.coeffs):
        raise InvariantViolation("polynomial coefficients must be finite and symmetric")
    targets = spec.spectrum.sorted_values()
    failure = None
    try:
        decomp = proper_values(P)
        values = decomp.values
        residual = float(np.max(np.abs(values - targets)))
    except (NonRealSpectrum, NearDegenerate, np.linalg.LinAlgError) as exc:
        values = np.full_like(targets, np.nan)
        residual = float("inf")
        failure = f"{type(exc).__name__}: {exc}"
    detail, leading_ok = _structure_verdict(P, spec)
    structure_ok = all(detail) and leading_ok
    passed = failure is None and residual <= value_tol and structure_ok
    if failure is None and residual > value_tol:
        failure = f"spectral residual {residual:.3g} exceeds tolerance {value_tol:.3g}"
    elif failure is None and not structure_ok:
        failure = "structure mismatch"
    return VerifyReport(
        residual=residual,
        values=values,
        structure_detail=detail,
        structure_ok=structure_ok,
        leading_ok=leading_ok,
        passed=passed,
        failure=None if passed else failure,
    )
