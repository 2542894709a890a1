"""Newton correction of diagonal unknowns with off-diagonal continuation.

The unknowns are exactly the kn diagonal entries of the non-leading
coefficients; the prescribed off-diagonal values are held fixed (they are
the perturbation the Newton step must compensate).  A direct solve at full
off-diagonal strength can leave the real-spectrum regime, in which case the
off-diagonals are ramped in by predictor-corrector continuation in their
scale tau: each step predicts along the tangent of the solution curve and
corrects with a Newton solve, keeping every converged step; the step halves
on failure and doubles on success (continuation_solve).  Only the
direct attempt at tau = 1 backtracks along its Newton steps; every later
corrector takes full steps, and the first one that does not lower the
residual fails it, so a losing corrector costs one eigensolve per
iteration.  At the diagonal seed the tangent is zero, so correctors from
the seed start at its closed-form second-order term instead, where that
term moves no target by more than half its gap (_seed_curvature).
Correctors below tau = 1 stop at the looser CORRECTOR_TOL_REL, and the
Jacobian reads P' back from the companion matrix of each eigensolve.  A
corrector returns its converged state, not a report: the polynomial is
assembled once per solve, for the one SolveReport continuation_solve
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvariantViolation,
    NearDegenerate,
    NoConvergence,
    NonRealSpectrum,
    SingularJacobian,
)
from .graphs import Graph, matrix_of_graph
from .matpoly import (
    CompanionTemplate,
    MatrixPolynomial,
    SEP_TOL_REL,
    SpectralDecomposition,
    proper_values,
)
from .seed import LeadingDiagonal, TargetSpectrum, seed_coefficients, seed_unknowns
from .sensitivity import jacobian_x, tau_derivative

MAX_CONTINUATION_STEPS = 64  # smallest continuation step is 1/MAX_CONTINUATION_STEPS
MAX_BACKTRACKS = 2  # step lengths 1, 1/2, 1/4: see newton_solve
CORRECTOR_TOL_REL = 1e-6  # correctors at tau < 1 stop at this times spectrum.scale: see continuation_solve
SEED_SHIFT_MAX = 0.5  # seed predictor only while every target shift is within this share of its gap


@dataclass(frozen=True)
class SolverControls:
    newton_tol: float | None = None  # None: 1e-11 * spectrum.scale, i.e. times max(diameter, 1)
    max_iter: int = 50

    def __post_init__(self):
        if self.newton_tol is not None and not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise InvariantViolation("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise InvariantViolation("max_iter must be at least 1")

    def resolved_tol(self, spectrum: TargetSpectrum) -> float:
        if self.newton_tol is not None:
            return self.newton_tol
        return 1e-11 * spectrum.scale


@dataclass(frozen=True)
class ProblemSpec:
    spectrum: TargetSpectrum
    lead: LeadingDiagonal
    graphs: tuple[Graph, ...]  # G_0 .. G_{k-1}
    epsilon: float = 0.5
    offdiag_values: tuple[np.ndarray | None, ...] | None = None  # None, or a None entry: all = epsilon
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
        given = (None,) * k if self.offdiag_values is None else tuple(self.offdiag_values)
        if len(given) != k:
            raise InvariantViolation(f"need {k} off-diagonal vectors, got {len(given)}")
        ys = []
        for s, (y, g) in enumerate(zip(given, self.graphs)):
            if y is None:
                # epsilon == 0 is the degenerate "echo the seed" case; any other
                # zero off-diagonal would silently break the prescribed structure
                ys.append(np.full(g.num_edges, float(self.epsilon)))
                continue
            y = np.asarray(y, dtype=float)
            if y.shape != (g.num_edges,):
                raise InvariantViolation(
                    f"off-diagonal vector {s} has length {y.shape[0] if y.ndim == 1 else y.shape}, "
                    f"expected {g.num_edges}"
                )
            if np.any((y == 0.0) | ~np.isfinite(y)):
                raise InvariantViolation("prescribed off-diagonal values must all be finite and nonzero")
            ys.append(y)
        object.__setattr__(self, "offdiag_values", tuple(ys))

    @property
    def n(self) -> int:
        return self.spectrum.n

    @property
    def k(self) -> int:
        return self.spectrum.k

    def seed(self) -> MatrixPolynomial:
        return seed_coefficients(self.spectrum, self.lead)

    @cached_property
    def ramp(self) -> MatrixPolynomial:
        """D(z) = sum_s z^s Y_s, Y_s the prescribed off-diagonals of
        coefficient s on a zero diagonal: the direction in which tau moves
        the polynomial.  Built once per spec; its matrices are read-only."""
        coeffs = tuple(
            matrix_of_graph(g, np.zeros(self.n), y) for g, y in zip(self.graphs, self.offdiag_values)
        )
        for c in coeffs:
            c.flags.writeable = False
        return MatrixPolynomial(coeffs)

    @cached_property
    def edge_masks(self) -> np.ndarray:
        """(k, n, n): True on each graph's edges (not the ramp's: zero at epsilon = 0)."""
        masks = np.zeros((self.k, self.n, self.n), dtype=bool)
        for s, g in enumerate(self.graphs):
            for i, j in g.edges:
                masks[s, i - 1, j - 1] = masks[s, j - 1, i - 1] = True
        return masks


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
    prescribed off-diagonals scaled by tau; leading coefficient is fixed.

    Coefficient s is tau * Y_s of spec.ramp with x's block s written on its
    diagonal: for tau >= 0 bitwise matrix_of_graph(graphs[s], x_s, tau * y_s).
    """
    n, k = spec.n, spec.k
    x = np.asarray(x, dtype=float)
    if x.shape != (n * k,):
        raise ValueError(f"x has shape {x.shape}, expected ({n * k},)")
    coeffs = [tau * y for y in spec.ramp.coeffs]
    for s, c in enumerate(coeffs):
        c[np.diag_indices(n)] = x[s * n:(s + 1) * n]
    coeffs.append(np.diag(spec.lead.alpha_k))
    return MatrixPolynomial(tuple(coeffs))


def companion_template(spec: ProblemSpec, tau: float = 1.0) -> CompanionTemplate:
    """The companion matrix of assemble(0, spec, tau), with the problem's
    separation tolerance: what every spectral_map at this tau shares.

    Built straight from spec.ramp and the leading diagonal alpha (last
    block row -(tau Y_s) / alpha, or the pencil -(tau Y_0) / sqrt(alpha
    alpha^T) at k = 1), so no polynomial is assembled or checked: bitwise
    linearize(assemble(0, spec, tau)), or its _pencil at k = 1, for tau >= 0.
    """
    return CompanionTemplate.from_coefficients([tau * y for y in spec.ramp.coeffs], spec.lead.alpha_k,
                                               SEP_TOL_REL * spec.spectrum.scale)


def spectral_map(x: np.ndarray, spec: ProblemSpec, tau: float = 1.0,
                 companion: CompanionTemplate | None = None):
    """Ascending proper values of assemble(x, spec, tau), bitwise, with the
    checks of proper_values at a separation tolerance of SEP_TOL_REL times
    spec.spectrum.scale.

    The kn unknowns are written into a copy of ``companion`` (default:
    companion_template(spec, tau), built here), so no polynomial is
    assembled or linearized: newton_solve builds the template once per
    solve and passes it to every trial.  Its companion_rows are bitwise
    those of proper_values(assemble(x, spec, tau)).
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
    """Per A_s, s < k: are its nonzero off-diagonal entries exactly the
    edges of graphs[s]?  And is A_k == diag(alpha)?"""
    offdiag = np.abs(np.stack(P.coeffs[:spec.k])) > 0.0
    offdiag[:, np.arange(spec.n), np.arange(spec.n)] = False
    per_coeff = tuple(bool(b) for b in np.all(offdiag == spec.edge_masks, axis=(1, 2)))
    leading_ok = bool(np.array_equal(P.coeffs[spec.k], np.diag(spec.lead.alpha_k)))
    return per_coeff, leading_ok


def newton_solve(
    spec: ProblemSpec,
    x0: np.ndarray | None = None,
    tau: float = 1.0,
    line_search: bool = True,
    tol: float | None = None,
) -> tuple[np.ndarray, SpectralDecomposition, tuple[IterationRecord, ...]]:
    """Damped Newton on the diagonal unknowns at fixed off-diagonal scale tau.

    Runs at most controls.max_iter iterations and stops at a residual of
    ``tol`` (default controls.resolved_tol) or less.  The step is the
    analytic-Jacobian Newton step (jacobian_x), taken at length 1, 1/2, 1/4
    (MAX_BACKTRACKS = 2 halvings) until the residual infinity-norm strictly
    decreases; otherwise the solve raises NoConvergence ("backtracking
    stalled").  The floor is 1/4 because a corrector that needs more
    damping than that is read as a continuation step that is too long:
    continuation_solve then halves the step in tau, which is cheaper than
    creeping along the Newton direction.  Without ``line_search`` only the
    full step is tried, so a full step that does not lower the residual, or
    whose spectrum is not real and simple, stalls the solve at once:
    continuation_solve asks for that on every corrector after its direct
    attempt.  A solve makes at most 1 + max_iter * (MAX_BACKTRACKS + 1)
    spectral_map evaluations with the line search, 1 + max_iter without.

    The residual is values - sorted targets, both ascending (sorted order
    is the matching).  Every spectral_map patches one companion template
    built per solve, and jacobian_x reads P' back from it and the proper
    vectors straight from its eigenvectors; no polynomial is assembled.
    Returns the converged state (x, decomposition, iterations): the last
    accepted iterate, its spectral_map (by the template's contract bitwise
    proper_values(assemble(x, spec, tau)), so _tangent needs no eig of its
    own) and one IterationRecord per accepted iterate, the start included.
    A failed solve raises NoConvergence / SingularJacobian /
    NonRealSpectrum / NearDegenerate.
    """
    ctl = spec.controls
    tol = ctl.resolved_tol(spec.spectrum) if tol is None else tol
    targets = spec.spectrum.sorted_values()
    x = seed_unknowns(spec.spectrum, spec.lead) if x0 is None else np.array(x0, dtype=float, copy=True)
    trace = []

    companion = companion_template(spec, tau)
    decomp = spectral_map(x, spec, tau, companion)  # NonRealSpectrum propagates: continuation trigger
    res = decomp.values - targets
    rnorm = float(np.max(np.abs(res)))
    trace.append(IterationRecord(0, rnorm, 0.0))

    for it in range(1, ctl.max_iter + 2):
        if rnorm <= tol:
            return x, decomp, tuple(trace)
        if it > ctl.max_iter:
            raise NoConvergence(f"residual {rnorm:.3g} > tol {tol:.3g} after {ctl.max_iter} iterations")
        J = jacobian_x(decomp)
        try:
            dx = np.linalg.solve(J, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton linear solve failed at iteration {it}: {exc}") from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobian(f"Newton step non-finite at iteration {it}")
        damp = 1.0
        for _ in range(MAX_BACKTRACKS + 1 if line_search else 1):
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
                break
            damp *= 0.5
        else:
            raise NoConvergence(f"backtracking stalled at residual {rnorm:.3g} (iteration {it})")


def _tangent(spec: ProblemSpec, decomp: SpectralDecomposition) -> np.ndarray:
    """dx/dtau of the solution curve at a converged point whose spectral
    decomposition is ``decomp``: -J^{-1} dlambda/dtau, or zero when the
    tangent cannot be formed (the predictor then is the point itself)."""
    try:
        xdot = -np.linalg.solve(jacobian_x(decomp), tau_derivative(decomp, spec.ramp))
    except (np.linalg.LinAlgError, DegenerateDenominator):
        return np.zeros(len(decomp))
    return xdot if np.all(np.isfinite(xdot)) else np.zeros(len(decomp))


def _seed_curvature(spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """The second-order seed predictor (c, rho): x(tau) = seed + tau^2 c +
    O(tau^3) on the solution curve through the diagonal seed, and the shift
    ratio rho that bounds where that expansion is used.

    Let p_r be the seed's r-th diagonal scalar polynomial, whose roots are
    row r of spec.spectrum.blocks, and D(z) = sum_s z^s Y_s the off-diagonal
    ramp spec.ramp.  A Schur complement on entry r moves its target lambda_q
    to lambda_q + tau^2 g_r(lambda_q) / p_r'(lambda_q) + O(tau^3), with
    g_r(z) = sum_{j != r} D_rj(z)^2 / p_j(z) (Andrew, Chu & Lancaster, SIAM
    J. Matrix Anal. Appl. 14, 1993).  Adding tau^2 times the degree-(k-1)
    interpolant of g_r at r's k targets to p_r cancels that shift, so entry
    r's block of c (c[s*n + r], s < k) holds the interpolant's
    coefficients.  rho is the largest unpredicted shift
    |g_r(lambda_q) / p_r'(lambda_q)| over the distance from lambda_q to its
    nearest other target.

    Built from the targets, the leading diagonal and the off-diagonal rows
    of D at the targets: no eig, no Jacobian, O(nk * n) memory.  When c or
    rho is not finite, the predictor is (0, inf): the bare seed.
    """
    n, k = spec.n, spec.k
    roots = spec.spectrum.blocks
    lam = roots.ravel()  # target q belongs to entry q // k
    entry = np.repeat(np.arange(n), k)
    with np.errstate(all="ignore"):
        # row q: D_rj(lambda_q) and p_j(lambda_q) for r = entry[q], every j
        d_row = np.zeros((n * k, n))
        for y in reversed(spec.ramp.coeffs):
            d_row = d_row * lam[:, None] + y[entry]
        p_row = np.tile(spec.lead.alpha_k, (n * k, 1))
        for i in range(k):
            p_row *= lam[:, None] - roots[:, i]
        p_row[np.arange(n * k), entry] = 1.0  # its own term: D has a zero diagonal
        g = np.sum(d_row ** 2 / p_row, axis=1)
        # p_r'(lambda_q) = alpha_r * prod of lambda_q - lambda_q' over r's other targets
        diff = roots[:, :, None] - roots[:, None, :]
        diff[:, np.arange(k), np.arange(k)] = 1.0
        shift = g / (spec.lead.alpha_k[:, None] * np.prod(diff, axis=2)).ravel()
        order = np.argsort(lam)
        gaps = np.concatenate(([np.inf], np.diff(lam[order]), [np.inf]))
        gap = np.empty(n * k)
        gap[order] = np.minimum(gaps[:-1], gaps[1:])
        rho = float(np.max(np.abs(shift) / gap))
        # Newton divided differences of g over each entry's targets, then
        # the interpolant's monomial coefficients by Horner on its Newton form
        dd = g.reshape(n, k)
        for j in range(1, k):
            dd[:, j:] = (dd[:, j:] - dd[:, j - 1:-1]) / (roots[:, j:] - roots[:, :-j])
        coef = np.zeros((n, k))
        for j in range(k - 1, -1, -1):  # coef(z) <- coef(z) * (z - roots[:, j]) + dd[:, j]
            coef = np.concatenate((dd[:, j, None], coef[:, :-1]), axis=1) - roots[:, j, None] * coef
    c = coef.T.ravel()
    if not (np.all(np.isfinite(c)) and np.isfinite(rho)):
        return np.zeros_like(c), np.inf
    return c, rho


def continuation_solve(spec: ProblemSpec) -> SolveReport:
    """Adaptive predictor-corrector continuation in the off-diagonal scale tau.

    Keeps the last converged (tau, x), starting from the diagonal seed at
    tau = 0 with a first step of dtau = 1: the full problem is tried first.
    From a converged tau > 0, each step predicts x + dtau * dx/dtau along
    the tangent of the solution curve.  At the seed that tangent is zero
    (every proper vector is a unit vector), so a corrector from the seed
    (the direct attempt at tau = 1 and its halved retries) starts at the
    second-order prediction seed + tau^2 c of _seed_curvature when tau^2
    rho <= SEED_SHIFT_MAX: no predicted target shift then exceeds half the
    gap to its nearest other target, where the expansion and the sorted
    matching hold.  Otherwise it starts at the bare seed.  Each prediction
    is corrected with newton_solve, in at most controls.max_iter
    iterations.  A point below tau = 1 only seeds the next prediction, so
    its corrector stops at CORRECTOR_TOL_REL times spectrum.scale, or at
    controls.newton_tol if looser: one quadratic Newton step regains full
    accuracy from there.  The corrector at tau = 1 stops at resolved_tol.
    Only the direct attempt backtracks along its Newton steps; every later
    corrector takes full steps only (line_search=False), so one full step
    that does not lower the residual fails it.  A corrector that would
    need damping is read as a step in tau that is too long, as after two
    halvings in the direct attempt (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, sec. 5.1).  A failed corrector halves the
    step and retries from the last converged point; a converged one
    doubles it, clipped to 1 - tau.  The solve gives up once the step
    falls below 1/MAX_CONTINUATION_STEPS.

    Every step but the last advances tau by at least 1/M (M =
    MAX_CONTINUATION_STEPS) and every failure halves the step, so a solve
    costs at most 2M - 1 + log2(M) = 133 Newton solves, and a problem on
    which no step converges costs log2(M) + 1 = 7.  The direct attempt
    makes at most 1 + controls.max_iter * (MAX_BACKTRACKS + 1)
    spectral_map evaluations (151 by default) and each later corrector at
    most 1 + controls.max_iter (51), so a solve makes at most 151 + 132 *
    51 = 6,883 with the default controls.  The predictors choose only where
    a corrector starts, so neither budget depends on them.

    The solve has one exit: the polynomial is assembled once, at the last
    converged (tau, x), for the one SolveReport.  continuation_path holds
    the converged tau values, ascending (to 1 on success).  On failure the
    report is the last converged (tau, x), with the residual of its last
    iteration (within the corrector tolerance below tau = 1); when no tau
    converged that is the seed at tau = 0, with an empty path and residual
    inf.  Its failure reads "<exception kind> at tau=<tau>: <detail>", for
    the last corrector tried.
    """
    loose_tol = max(CORRECTOR_TOL_REL * spec.spectrum.scale, spec.controls.resolved_tol(spec.spectrum))
    x = seed_unknowns(spec.spectrum, spec.lead)
    curvature, rho = _seed_curvature(spec)
    tau, dtau = 0.0, 1.0
    path, trace, failure = [], [], None
    while True:
        # absorb rounding in tau + dtau so the last step lands exactly on 1
        tau_next = 1.0 if tau + dtau > 1.0 - 1e-12 else tau + dtau
        if path:
            x0 = x + (tau_next - tau) * xdot
        elif tau_next ** 2 * rho <= SEED_SHIFT_MAX:
            x0 = x + tau_next ** 2 * curvature
        else:
            x0 = x
        try:
            # the direct attempt: from the seed at tau = 1
            x_next, decomp, iterations = newton_solve(
                spec, x0=x0, tau=tau_next, line_search=not path and tau_next == 1.0,
                tol=None if tau_next == 1.0 else loose_tol)
        except (NoConvergence, NonRealSpectrum, NearDegenerate, SingularJacobian,
                DegenerateDenominator) as exc:
            dtau *= 0.5
            if dtau >= 1.0 / MAX_CONTINUATION_STEPS:
                continue
            failure = f"{type(exc).__name__} at tau={tau_next:.6g}: {exc}"
            break
        x, tau = x_next, tau_next
        path.append(tau)
        trace.extend(iterations)
        if tau == 1.0:
            break
        xdot = _tangent(spec, decomp)
        dtau = min(2.0 * dtau, 1.0 - tau)
    # the last converged (tau, x): the seed at tau = 0 when none did
    P = assemble(x, spec, tau)
    detail, leading_ok = _structure_verdict(P, spec)
    return SolveReport(
        polynomial=P,
        x=x,
        residual=trace[-1].residual if path else np.inf,
        iterations=tuple(trace),
        structure_ok=all(detail) and leading_ok,
        structure_detail=detail,
        leading_ok=leading_ok,
        continuation_path=tuple(path),
        converged=failure is None,
        failure=failure,
    )


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
    InvariantViolation when value_tol is negative or not finite, when P's
    size n or degree k is not the problem's, or when a coefficient is not
    finite and symmetric."""
    if not 0.0 <= value_tol < np.inf:
        raise InvariantViolation(f"value_tol must be finite and non-negative, got {value_tol}")
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
