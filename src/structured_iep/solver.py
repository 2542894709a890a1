"""Newton correction of diagonal unknowns with off-diagonal continuation.

The unknowns are exactly the kn diagonal entries of the non-leading
coefficients; the prescribed off-diagonal values are held fixed (they are
the perturbation the Newton step must compensate).  The off-diagonals are
ramped in by predictor-corrector continuation in their scale tau: each step
predicts along the tangent of the solution curve and corrects with a Newton
solve, keeping every converged step; the step halves on failure, and after
a success it is scaled by how fast that corrector contracted, Deuflhard's
adaptive path-following (_next_step).  Every corrector takes full Newton
steps, and the first one that does not lower the residual fails it, as does
a trial whose eigensolve raises (with that error as the corrector's kind).
A step longer than its reference, the predictor's displacement for the
first step and the step before it for a later one, fails the corrector
before its trial's eigensolve (PREDICTOR_ERROR_MAX, NEWTON_STEP_GROWTH_MAX).
At the diagonal seed the tangent is zero, so correctors from the seed start
at the fourth-order seed predictor instead, the closed-form Taylor series
seed + tau^2 c_2 + tau^3 c_3 + tau^4 c_4 of the solution curve, with an
O(tau^5) error, where its tau^2 term moves no target by more than half its
gap (_seed_series), and the first step is the longest power of two in tau
over which it does so (_first_step): the full problem at tau = 1 only when
the seed predictor reaches it.
Correctors below tau = 1 stop at the looser CORRECTOR_TOL_REL.

This module runs no eigensolve and no derivative of its own: a trial's
polynomial is one coefficient row [A_0 ... A_{k-1}], tau times the spec's
cached ramp row with the unknowns written on its diagonals by the same
writer assemble uses, which matpoly.decompose_row turns into a
decomposition; sensitivity.jacobian_x turns that into the Newton
Jacobian, and, given the ramp row as its direction, into the tangent's J
and dlambda/dtau in one call.  A corrector at tau = 1 that starts within
VECTOR_REUSE_SHIFT of every target's gap computes proper vectors once, at
its start: its trials solve for values only, and their Jacobians read the
start's vectors (no tangent follows the last corrector).  The Newton
step and the tangent are linear solves of matpoly.lapack, the package's
one LAPACK kernel.  A corrector returns its state and a Corrector record
of how it ended, not a report: the records are the one account of a
solve, from which continuation_solve derives its path, iterations,
residual and failure text, and the polynomial is assembled once per
solve, for the one SolveReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import (DegenerateDenominator, InvariantViolation, NoConvergence, SingularJacobian, check_integer,
                     check_positive, check_real, real_vector)
from .graphs import Graph, matrix_of_graph
from .matpoly import MatrixPolynomial, SPECTRUM_FAILURES, SpectralDecomposition, decompose_row, lapack, proper_values
from .seed import LeadingDiagonal, TargetSpectrum, seed_coefficients, seed_unknowns
from .sensitivity import jacobian_x

MAX_CONTINUATION_STEPS = 64  # smallest continuation step is 1/MAX_CONTINUATION_STEPS
# continuation_solve's budget of Newton solves, 2M - 1 + log2(M) (M = MAX_CONTINUATION_STEPS),
# and its loop's bound: a defect in the step rule ends the solve instead of hanging it
_NEWTON_SOLVE_BUDGET = 2 * MAX_CONTINUATION_STEPS - 1 + int(math.log2(MAX_CONTINUATION_STEPS))
CORRECTOR_TOL_REL = 1e-6  # correctors at tau < 1 stop at this times spectrum.scale: see continuation_solve
SEED_SHIFT_MAX = 0.5  # seed predictor only while every target shift is within this share of its gap
CONTRACTION_TARGET = 0.05  # the corrector contraction rate the next step in tau aims at: see _next_step
STEP_FACTOR_MIN, STEP_FACTOR_MAX = 0.5, 2.0  # clip of the step's factor after a converged corrector
VECTOR_REUSE_SHIFT = 0.01
"""A corrector at tau = 1 whose start residual r has max_q |r_q| / g_q at
most this (g = spectrum.gaps) computes proper vectors once, at its start,
and every later trial solves for values only.  To first order a Newton step
moves proper vector q by about |r_q| / g_q, so the Jacobian built from the
start's vectors is off by about 1% at most and each step still gains about
two digits."""
PREDICTOR_ERROR_MAX = 1.0
"""A corrector whose first Newton step is longer than this times its
predictor's displacement |x0 - x_prev| fails before that step's trial.
From a start inside Newton's convergence region the first step estimates
the start's distance to the root, the predictor's error (Deuflhard, Newton
Methods for Nonlinear Problems, 2004, ch. 5; Allgower & Georg, Introduction
to Numerical Continuation Methods, SIAM 2003, ch. 6).  A predictor of order
p moves x by about C tau^p and errs by about C' tau^(p+1), so the ratio of
the two grows with the step in tau and reaches 1 where the neglected term
is as large as the one kept: beyond it the predictor no longer follows the
curve, and the step in tau was too long.  The tangent is such a predictor
(p = 1); the fourth-order seed predictor moves x by its whole series,
about C tau^2, and errs by about C' tau^5.  From the bare seed the
displacement is 0 and the test is skipped."""
NEWTON_STEP_GROWTH_MAX = 1.5
"""A corrector whose Newton step is longer than this times its previous
accepted step (contraction theta = |dx_{k+1}| / |dx_k|) fails before that
step's trial.  Deuflhard's natural monotonicity test asks theta_bar < 1 of
the simplified correction J_k^{-1} F(x_{k+1}), which costs a linear solve
with the previous Jacobian; the corrector has the ordinary correction
dx_{k+1} = J_{k+1}^{-1} F(x_{k+1}) instead.  With the affine-covariant
Lipschitz constant omega, |J_{k+1}^{-1} J_k| <= 1 + h_k, h_k = omega |dx_k|,
so theta <= (1 + h_k) theta_bar (Deuflhard 2004, ch. 2).  Inside the
Kantorovich region h_k <= 1/2 a step with theta > 3/2 therefore has
theta_bar > 1, and outside it Newton's convergence from x_k is not
assured: either way the corrector is read as diverging."""


@dataclass(frozen=True)
class SolverControls:
    newton_tol: float | None = None  # None: 1e-11 * spectrum.scale, i.e. times max(diameter, 1)
    max_iter: int = 50

    def __post_init__(self):
        tol, max_iter = self.newton_tol, self.max_iter
        if tol is not None:
            check_positive("newton_tol", tol)
        check_integer("max_iter", max_iter)
        if max_iter < 1:
            raise InvariantViolation("max_iter must be at least 1")

    def resolved_tol(self, spectrum: TargetSpectrum) -> float:
        if self.newton_tol is not None:
            return self.newton_tol
        return 1e-11 * spectrum.scale


@dataclass(frozen=True)
class ProblemSpec:
    """The whole problem.  A component of the wrong type raises
    InvariantViolation; offdiag_values holds read-only float64 copies."""

    spectrum: TargetSpectrum
    lead: LeadingDiagonal
    graphs: tuple[Graph, ...]  # G_0 .. G_{k-1}
    epsilon: float = 0.5
    offdiag_values: tuple[np.ndarray | None, ...] | None = None  # None, or a None entry: all = epsilon
    controls: SolverControls = field(default_factory=SolverControls)

    def __post_init__(self):
        for name, kind in (("spectrum", TargetSpectrum), ("lead", LeadingDiagonal), ("controls", SolverControls)):
            if not isinstance(value := getattr(self, name), kind):
                raise InvariantViolation(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        if not isinstance(self.graphs, tuple) or not all(isinstance(g, Graph) for g in self.graphs):
            raise InvariantViolation("graphs must be a tuple of Graph objects")
        n, k = self.spectrum.n, self.spectrum.k
        check_real("epsilon", self.epsilon)
        if len(self.graphs) != k:
            raise InvariantViolation(f"need {k} graphs, got {len(self.graphs)}")
        for s, g in enumerate(self.graphs):
            if g.n != n:
                raise InvariantViolation(f"graph {s} has {g.n} vertices, expected {n}")
        if self.lead.alpha_k.shape != (n,):
            raise InvariantViolation(f"leading diagonal has wrong length {self.lead.alpha_k.shape[0]}")
        try:
            given = (None,) * k if self.offdiag_values is None else tuple(self.offdiag_values)
        except TypeError:  # not a sequence
            raise InvariantViolation(f"offdiag_values must be None or {k} vectors, "
                                     f"got {type(self.offdiag_values).__name__}") from None
        if len(given) != k:
            raise InvariantViolation(f"need {k} off-diagonal vectors, got {len(given)}")
        ys = []
        for s, (y, g) in enumerate(zip(given, self.graphs)):
            if y is None:
                # epsilon == 0 is the degenerate "echo the seed" case; any other
                # zero off-diagonal would silently break the prescribed structure
                y = np.full(g.num_edges, float(self.epsilon))
            else:
                y = real_vector(f"off-diagonal vector {s}", y, g.num_edges)
                # all zeros at epsilon == 0 is what None gives there, so a
                # spec's own values pass again (dataclasses.replace)
                if not y.all() and (self.epsilon != 0.0 or y.any()):
                    raise InvariantViolation("prescribed off-diagonal values must all be nonzero")
            y.flags.writeable = False
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
    def ramp_row(self) -> np.ndarray:
        """[Y_0 ... Y_{k-1}] (n x kn), Y_s the prescribed off-diagonals of
        coefficient s on a zero diagonal: the coefficient row of the ramp
        D(z) = sum_s z^s Y_s, the direction in which tau moves the
        polynomial.  Built once per spec and read-only: every assemble and
        spectral_map starts from tau times it."""
        row = np.hstack([matrix_of_graph(g, np.zeros(self.n), y)
                         for g, y in zip(self.graphs, self.offdiag_values)])
        row.flags.writeable = False
        return row

    @cached_property
    def _unknown_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, columns) of the kn diagonal unknowns in a coefficient row
        [A_0 ... A_{k-1}], read-only: unknown s*n + r is entry (r, s*n + r)."""
        columns = np.arange(self.n * self.k)
        rows = columns % self.n
        rows.flags.writeable = columns.flags.writeable = False
        return rows, columns

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
class Corrector:
    """How one newton_solve at off-diagonal scale tau ended: its accepted
    iterates, start first (empty when the start's eigensolve failed), and
    where it stopped, ``ended``:

    - "converged": its last iterate is within tolerance;
    - "start": the start's eigensolve raised;
    - "step": after its Jacobian and before the trial, a step refused for
      its length (NoConvergence), a SingularJacobian or a
      DegenerateDenominator;
    - "trial": the trial's eigensolve raised, or the trial did not lower
      the residual (NoConvergence);
    - "budget": it reached controls.max_iter (NoConvergence).

    A failed corrector holds the error's class as ``kind`` and its message
    as ``detail``, not the exception, whose traceback would keep the
    solve's frames alive."""

    tau: float
    iterations: tuple[IterationRecord, ...]
    ended: Literal["converged", "start", "step", "trial", "budget"]
    kind: type[Exception] | None = None
    detail: str | None = None

    @property
    def converged(self) -> bool:
        return self.ended == "converged"

    @property
    def trials(self) -> int:
        """spectral_map calls after the start: one per accepted step, and
        the one that ended the corrector at a trial."""
        return len(self.iterations[1:]) + (self.ended == "trial")


@dataclass(frozen=True)
class SolveReport:
    polynomial: MatrixPolynomial
    x: np.ndarray
    residual: float
    iterations: tuple[IterationRecord, ...]  # of the converged correctors, in order
    correctors: tuple[Corrector, ...]  # every newton_solve, discarded ones included
    structure_ok: bool
    structure_detail: tuple[bool, ...]  # per non-leading coefficient
    leading_ok: bool
    continuation_path: tuple[float, ...]
    converged: bool
    failure: str | None = None


def _coefficient_row(x: np.ndarray, spec: ProblemSpec, tau: float) -> np.ndarray:
    """[A_0 ... A_{k-1}] of assemble(x, spec, tau), as one fresh n x kn row:
    tau * spec.ramp_row with x's block s on the diagonal of block s, in one
    indexed store.  The one writer of the unknowns, for assemble and
    spectral_map."""
    ramp = spec.ramp_row
    x = np.asarray(x, dtype=float)
    if x.shape != (ramp.shape[1],):
        raise InvariantViolation(f"x has shape {x.shape}, expected ({ramp.shape[1]},)")
    row = tau * ramp
    row[spec._unknown_slots] = x
    return row


def assemble(x: np.ndarray, spec: ProblemSpec, tau: float = 1.0) -> MatrixPolynomial:
    """Build the polynomial from diagonal unknowns x (s-major) with the
    prescribed off-diagonals scaled by tau; leading coefficient is fixed.

    Coefficient s is block s of spectral_map's coefficient row, tau * Y_s
    of spec.ramp_row with x's block s written on its diagonal: for tau >= 0
    bitwise matrix_of_graph(graphs[s], x_s, tau * y_s).  A bad x (see
    errors.real_vector) or a tau that is not a finite real number (see
    errors.check_real) raises InvariantViolation."""
    check_real("tau", tau)
    n, k = spec.n, spec.k
    row = _coefficient_row(real_vector("x", x, n * k), spec, tau)
    return MatrixPolynomial((*row.reshape(n, k, n).transpose(1, 0, 2), np.diag(spec.lead.alpha_k)))


def spectral_map(x: np.ndarray, spec: ProblemSpec, tau: float = 1.0, rows: np.ndarray | None = None):
    """proper_values(assemble(x, spec, tau)), bitwise, its spectrum errors
    included.  Given ``rows``, the eigensolve computes values only, and
    ``rows`` is the decomposition's companion_rows.

    No polynomial is assembled or checked: the kn unknowns are written on
    the diagonals of tau times the spec's cached ramp_row, and that
    coefficient row goes to decompose_row, as proper_values sends the row
    of assemble(x, spec, tau).

    It checks only the shapes of x and ``rows`` (kn x n), raising
    InvariantViolation, not assemble's input rules: it is every Newton
    trial's hot path and the tracer's trial site.  So a bool x is cast to
    float, and a non-finite tau surfaces as LAPACK's LinAlgError, one of
    SPECTRUM_FAILURES.
    """
    row = _coefficient_row(x, spec, tau)
    if rows is not None and getattr(rows, "shape", None) != row.shape[::-1]:  # kn x n
        raise InvariantViolation(f"rows has shape {np.shape(rows)}, expected {row.shape[::-1]}")
    return decompose_row(row, spec.lead.alpha_k, rows)


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
        raise InvariantViolation("length mismatch")
    return np.arange(len(current)), False


def _structure_verdict(P: MatrixPolynomial, spec: ProblemSpec) -> tuple[tuple[bool, ...], bool]:
    """Per A_s, s < k: are its nonzero off-diagonal entries exactly the
    edges of graphs[s]?  And is A_k == diag(alpha)?"""
    n, k = spec.n, spec.k
    offdiag = np.abs(np.array(P.coeffs[:k])) > 0.0
    offdiag.reshape(k, n * n)[:, ::n + 1] = False  # every block's diagonal
    per_coeff = tuple((offdiag == spec.edge_masks).all(axis=(1, 2)).tolist())
    leading_ok = bool((P.coeffs[spec.k] == np.diag(spec.lead.alpha_k)).all())
    return per_coeff, leading_ok


def newton_solve(
    spec: ProblemSpec,
    x0: np.ndarray | None = None,
    tau: float = 1.0,
    tol: float | None = None,
    displacement: float = 0.0,
) -> tuple[np.ndarray, SpectralDecomposition | None, Corrector]:
    """Newton on the diagonal unknowns at fixed off-diagonal scale tau.

    Runs at most controls.max_iter iterations and stops at a residual of
    ``tol`` (default controls.resolved_tol) or less.  Each iteration takes
    the full analytic-Jacobian Newton step (jacobian_x) if it strictly
    lowers the residual infinity-norm.  Otherwise the solve fails with
    NoConvergence ("full step did not lower the residual"), and when the
    step's spectral_map raises one of SPECTRUM_FAILURES (a spectrum not
    real and simple, or a companion that overflows) it fails with that
    error; either way it damps nothing: continuation_solve halves its step
    in tau instead.  Before a trial, a step whose Euclidean norm exceeds
    its reference fails the solve with NoConvergence and no trial, its
    detail naming the reference: PREDICTOR_ERROR_MAX times
    ``displacement``, the predictor's |x0 - x_prev|, for the first step
    (no test when it is 0, the default), and NEWTON_STEP_GROWTH_MAX times
    the previous accepted step for a later one.  A solve makes at most
    1 + max_iter spectral_map evaluations: the start, then one per trial.

    The residual is values - sorted targets, both ascending (sorted order
    is the matching).  Every spectral_map writes its trial's coefficient
    row, and jacobian_x reads P' (from the decomposition's coefficients)
    and the proper vectors from its decomposition; no polynomial is
    assembled.
    At tau = 1, when the start residual r has max_q |r_q| / g_q <=
    VECTOR_REUSE_SHIFT (g = spectrum.gaps), the proper vectors are computed
    once, at the start: every trial solves for values only, and its
    Jacobian reads the start's vectors with the trial's own values and P'.
    Returns (x, decomposition, Corrector) whether it converges or fails;
    x is the last accepted iterate (x0 when none was).  On convergence the
    decomposition is x's spectral_map and the record holds one
    IterationRecord per accepted iterate, the start included.  The
    decomposition's values are exact; its rows are, by spectral_map's
    contract, bitwise those of proper_values(assemble(x, spec, tau)), so
    _tangent needs no eig of its own, except when the start's vectors were
    reused: its rows are then the start's.  On failure the decomposition is
    None, the record's kind is the class of the error that ended the
    solve, and its ``ended`` is set at the point of the loop where that
    happened: the start, a step, a trial or the budget (see Corrector).
    Only bad input raises: a ``tau`` that is not a finite real number, a
    ``tol`` that is not a positive one, a ``displacement`` that is not a
    non-negative one, or an ``x0`` that is not a finite real vector of
    shape (kn,) (errors.check_real, errors.check_positive,
    errors.real_vector), raises InvariantViolation."""
    if tol is not None:
        check_positive("tol", tol)
    check_real("tau", tau)
    check_real("displacement", displacement)
    if displacement < 0.0:
        raise InvariantViolation(f"displacement must be non-negative, got {displacement}")
    ctl = spec.controls
    tol = ctl.resolved_tol(spec.spectrum) if tol is None else tol
    targets = spec.spectrum.sorted_values()
    if x0 is None:
        x = seed_unknowns(spec.spectrum, spec.lead)
    else:
        x = real_vector("x0", x0, spec.n * spec.k)
    trace, ended = [], "start"

    try:
        decomp = spectral_map(x, spec, tau)
        res = decomp.values - targets
        rnorm = float(np.maximum.reduce(np.abs(res)))
        trace.append(IterationRecord(0, rnorm, 0.0))
        # the final corrector near its root: the start's vectors serve every trial
        reuse = tau == 1.0 and np.maximum.reduce(np.abs(res) / spec.spectrum.gaps) <= VECTOR_REUSE_SHIFT
        rows = decomp.companion_rows if reuse else None

        for it in range(1, ctl.max_iter + 2):
            if rnorm <= tol:
                return x, decomp, Corrector(tau, tuple(trace), "converged")
            if it > ctl.max_iter:
                ended = "budget"
                raise NoConvergence(f"residual {rnorm:.3g} > tol {tol:.3g} after {ctl.max_iter} iterations")
            ended = "step"
            J = jacobian_x(decomp)
            try:
                dx = lapack("solve", J, res)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian(f"Newton linear solve failed at iteration {it}: {exc}") from exc
            if not np.logical_and.reduce(np.isfinite(dx)):
                raise SingularJacobian(f"Newton step non-finite at iteration {it}")
            step = math.sqrt(dx @ dx)
            if it == 1:
                if 0.0 < displacement and step > PREDICTOR_ERROR_MAX * displacement:
                    raise NoConvergence(f"Newton step {step:.3g} longer than the predictor displacement "
                                        f"{displacement:.3g} (iteration 1)")
            elif step > NEWTON_STEP_GROWTH_MAX * trace[-1].step_norm:
                raise NoConvergence(f"Newton step {step:.3g} longer than {NEWTON_STEP_GROWTH_MAX:g} times "
                                    f"the previous step {trace[-1].step_norm:.3g} (iteration {it})")
            x_try = x - dx
            ended = "trial"
            d_try = spectral_map(x_try, spec, tau, rows)
            r_try = d_try.values - targets
            # the ufunc's reduce, without the Python wrapper of ndarray.max
            rn_try = float(np.maximum.reduce(np.abs(r_try)))
            if not rn_try < rnorm:
                raise NoConvergence(f"full step did not lower the residual {rnorm:.3g} (iteration {it})")
            x, decomp, res, rnorm = x_try, d_try, r_try, rn_try
            trace.append(IterationRecord(it, rnorm, step))
    except (NoConvergence, SingularJacobian, DegenerateDenominator, *SPECTRUM_FAILURES) as exc:
        # the class and message only: the exception's traceback holds this frame
        return x, None, Corrector(tau, tuple(trace), ended, type(exc), str(exc))


def _tangent(spec: ProblemSpec, decomp: SpectralDecomposition) -> np.ndarray:
    """dx/dtau of the solution curve at a converged point whose spectral
    decomposition is ``decomp``: -J^{-1} dlambda/dtau, or zero when the
    tangent cannot be formed (the predictor then is the point itself)."""
    try:
        A = jacobian_x(decomp, spec.ramp_row)  # [J  dlambda/dtau]
        xdot = lapack("solve", A[:, :-1], -A[:, -1])
    except (np.linalg.LinAlgError, DegenerateDenominator):
        return np.zeros(len(decomp))
    return xdot if np.isfinite(xdot).all() else np.zeros(len(decomp))


def _interpolate(a: np.ndarray, roots: np.ndarray) -> None:
    """Overwrite a stack of value sets with their interpolants'
    coefficients.  a[i, r, m] is set i's value at roots[r, m] (roots is n x
    k) and becomes the z^m coefficient of set i's degree-(k-1) interpolant
    on entry r: Newton divided differences over each entry's targets, then
    Horner on the Newton form, both in place."""
    k = roots.shape[1]
    for j in range(1, k):
        a[..., j:] = (a[..., j:] - a[..., j - 1:-1]) / (roots[:, j:] - roots[:, :-j])
    for j in range(k - 2, -1, -1):  # a(z) <- a[j] + (z - roots[:, j]) a(z), a(z) = sum_s a[j + 1 + s] z^s
        a[..., j:-1] -= roots[:, j, None] * a[..., j + 1:]


def _seed_series(spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """The fourth-order seed predictor (c, rho): x(tau) = seed + tau^2 c_2 +
    tau^3 c_3 + tau^4 c_4 + O(tau^5) on the solution curve through the
    diagonal seed, c = [c_2, c_3, c_4] (3 x kn), and the shift ratio rho
    that bounds where that expansion is used.

    Let p_j be the seed's j-th diagonal scalar polynomial, whose roots are
    row j of spec.spectrum.blocks, D(z) = sum_s z^s Y_s the off-diagonal
    ramp, Y_s the blocks of spec.ramp_row, and delta_j(z) = sum_s x[s*n +
    j] z^s the move of entry j's unknowns from the seed.  Target lambda_q
    of entry r is a proper value exactly when the Schur complement on entry
    r vanishes there: delta_r(lambda_q) = tau^2 d^T M^{-1} d, d the column
    r of D(lambda_q) without entry r and M = diag(p_j + delta_j) + tau D,
    both at lambda_q, over the other entries (Andrew, Chu & Lancaster, SIAM
    J. Matrix Anal. Appl. 14, 1993).  The Neumann series of M^{-1} about
    diag(p_j), with delta_j = O(tau^2), gives that right side to O(tau^5)
    from u_q[j] = D_rj(lambda_q) / p_j(lambda_q) (u_q[r] = 0) and w_q =
    D(lambda_q) u_q:

    - tau^2: g_q = sum_j D_rj(lambda_q) u_q[j];
    - tau^3: -u_q^T w_q;
    - tau^4: sum_{l != r} w_q[l]^2 / p_l(lambda_q) - sum_j u_q[j]^2
      delta2_j(lambda_q), delta2_j(z) = sum_s c_2[s*n + j] z^s.

    delta_r has degree k - 1 and r has k targets, so entry r's block of
    c_i (c_i[s*n + r], s < k) holds the coefficients of the interpolant of
    the tau^i values at r's targets (_interpolate).  A graph without odd
    cycles, a path's, has c_3 = 0: x(tau) is even in tau.  rho is the
    largest second-order shift |g_q / p_r'(lambda_q)| over the distance
    from lambda_q to its nearest other target (spectrum.gaps).

    Built from the targets, the leading diagonal and the off-diagonal rows
    of D at the targets, and one product of the nk x n matrix of the u_q by
    the n x kn ramp row: no eig, no Jacobian, O(k^2 n^2) memory.  When c or rho is not
    finite, the predictor is (0, inf): the bare seed.
    """
    n, k = spec.n, spec.k
    alpha = spec.lead.alpha_k
    roots = spec.spectrum.blocks
    lam = roots.ravel()  # target q belongs to entry q // k
    col = lam[:, None]
    q = np.arange(n * k)
    entry = q // k
    with np.errstate(all="ignore"):
        # row q: D_rj(lambda_q) and p_j(lambda_q) for r = entry[q], every j
        ys = spec.ramp_row.reshape(n, k, n)[entry]  # ys[q, s] = row entry[q] of Y_s
        d_row = ys[:, -1]
        for s in range(k - 2, -1, -1):
            d_row = d_row * col + ys[:, s]
        p_row = alpha * (col - roots[:, 0])
        for i in range(1, k):
            p_row *= col - roots[:, i]
        p_row[q, entry] = 1.0  # its own term: D has a zero diagonal, so u[q, entry] = 0
        u = d_row / p_row
        uy = (u @ spec.ramp_row).reshape(n * k, k, n)  # uy[q, s] = Y_s u_q, Y_s symmetric
        w = uy[:, -1]  # row q: D(lambda_q) u_q
        for s in range(k - 2, -1, -1):
            w = w * col + uy[:, s]
        # h[i] holds the tau^(i+2) values at the targets, then their interpolants
        h = np.empty((3, n, k))
        flat = h.reshape(3, n * k)
        g = np.add.reduce(d_row * u, axis=1, out=flat[0])
        np.negative(np.add.reduce(u * w, axis=1), out=flat[1])
        # p_r'(lambda_q) = alpha_r * prod of lambda_q - lambda_q' over r's other targets
        diff = roots[:, :, None] - roots[:, None, :]
        diff.reshape(n, k * k)[:, ::k + 1] = 1.0
        shift = g / (alpha[:, None] * np.multiply.reduce(diff, axis=2)).ravel()
        rho = float(np.maximum.reduce(np.abs(shift[lam.argsort()]) / spec.spectrum.gaps))  # gaps are in sorted order
        _interpolate(h[:2], roots)
        w[q, entry] = 0.0  # the sum over l != r
        # sum_j u_q[j]^2 delta2_j(lambda_q), by Horner on uc[q, s] = sum_j u_q[j]^2 c_2[s*n + j]
        uc = (u * u) @ h[0]
        ud = uc[:, -1]
        for s in range(k - 2, -1, -1):
            ud = ud * lam + uc[:, s]
        np.subtract(np.add.reduce(w * w / p_row, axis=1), ud, out=flat[2])
        _interpolate(h[2:], roots)
    c = h.transpose(0, 2, 1).reshape(3, k * n)
    if not (np.logical_and.reduce(np.isfinite(c), axis=None) and np.isfinite(rho)):
        return np.zeros_like(c), np.inf
    return c, rho


def _first_step(rho: float) -> float:
    """The first step in tau from the seed, given the shift ratio rho of
    _seed_series: the longest 2^-j (j >= 0) with 4^-j rho <=
    SEED_SHIFT_MAX, where the seed predictor's tau^2 term moves no target
    by more than half its gap, floored at 1/MAX_CONTINUATION_STEPS.  Only at that floor
    (rho > SEED_SHIFT_MAX * M^2, or rho = inf) does a corrector start at the
    bare seed."""
    dtau = 1.0
    while dtau > 1.0 / MAX_CONTINUATION_STEPS and dtau ** 2 * rho > SEED_SHIFT_MAX:
        dtau *= 0.5
    return dtau


def _next_step(dtau: float, tau: float, iterations: tuple[IterationRecord, ...]) -> float:
    """The step in tau after a corrector that converged at tau, reached by
    a step of dtau, with these accepted iterates (the start first).

    With at least two accepted steps the corrector's contraction rate is
    theta = |dx_2| / |dx_1| (IterationRecord.step_norm; an accepted step is
    never zero, because a zero step leaves the residual where it was).  The
    tangent predictor's error grows as the step squared, so the step that
    would make the next corrector contract at CONTRACTION_TARGET is dtau *
    sqrt(CONTRACTION_TARGET / theta) (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, ch. 5; Deuflhard, Fiedler & Kunkel, SIAM J.
    Numer. Anal. 24, 1987).  That factor is clipped to [STEP_FACTOR_MIN,
    STEP_FACTOR_MAX]; theta = 0, or a corrector with fewer than two steps,
    has no rate to read and takes the largest factor, doubling the step.
    The step is then floored at 1/MAX_CONTINUATION_STEPS, so that a
    shrinking step cannot stall tau short of 1, and clipped to 1 - tau."""
    factor = STEP_FACTOR_MAX
    if len(iterations) > 2 and (theta := iterations[2].step_norm / iterations[1].step_norm) > 0.0:
        factor = min(max(math.sqrt(CONTRACTION_TARGET / theta), STEP_FACTOR_MIN), STEP_FACTOR_MAX)
    return min(max(factor * dtau, 1.0 / MAX_CONTINUATION_STEPS), 1.0 - tau)


def continuation_solve(spec: ProblemSpec) -> SolveReport:
    """Adaptive predictor-corrector continuation in the off-diagonal scale tau.

    Keeps the last converged (tau, x), starting from the diagonal seed at
    tau = 0.  From a converged tau > 0, each step predicts x + dtau *
    dx/dtau along the tangent of the solution curve.  At the seed that
    tangent is zero (every proper vector is a unit vector), so a corrector
    from the seed (the first one and its halved retries) starts at the
    fourth-order seed predictor seed + tau^2 c_2 + tau^3 c_3 + tau^4 c_4
    of _seed_series, whose error is O(tau^5), when tau^2 rho <=
    SEED_SHIFT_MAX: no target shift of its tau^2 term then exceeds half the
    gap to its nearest other target, where the expansion and the sorted
    matching hold.  Otherwise it starts at the bare seed.  The first step
    is _first_step(rho), the longest 2^-j inside that gate (floored at
    1/M), so only a corrector at the floor starts at the bare seed, and
    the full problem at tau = 1 is tried first only when rho <=
    SEED_SHIFT_MAX.  Each prediction
    is corrected with newton_solve, in at most controls.max_iter
    iterations.  A point below tau = 1 only seeds the next prediction, so
    its corrector stops at CORRECTOR_TOL_REL times spectrum.scale, or at
    controls.newton_tol if looser: one quadratic Newton step regains full
    accuracy from there.  The corrector at tau = 1 stops at resolved_tol.
    Every corrector takes full Newton steps, and one that does not lower
    the residual fails it: a corrector that would need damping is read as
    a step in tau that is too long (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, sec. 5.1).  Each corrector is given its
    predictor's displacement, |tau step * dx/dtau| or the seed series'
    |tau^2 c_2 + tau^3 c_3 + tau^4 c_4| (0 from the bare seed), so a first
    Newton step longer than the predictor's own move fails it before that
    step's trial (newton_solve, PREDICTOR_ERROR_MAX).  A failed corrector
    halves the step and retries from the last converged point.  A converged one sets
    the next step from its own contraction rate (_next_step): the last
    step times a factor in [1/2, 2], floored at 1/M (M =
    MAX_CONTINUATION_STEPS) and clipped to 1 - tau.  The solve gives up
    once a failure takes the step below 1/M.

    The budget.  Every attempted step is at least 1/M, the floor, except a
    step clipped to 1 - tau, which lands on tau = 1.  So each success below
    tau = 1 advances tau by at least 1/M, and at most M - 1 succeed below
    1.  In l = log2(dtau), -j <= 0 at the start (dtau = 2^-j, the first
    step), a failure lowers l by 1, and a
    success raises it by at most 1: its factor is at most 2, the floor
    lifts a step to 1/M, at most twice a step that was at least 1/M, and
    the clip to 1 - tau only lowers it.  A factor below 1 only lowers l, so
    a shrinking step adds no failure to the count; without the floor it
    could add successes, tau creeping toward a limit below 1.  Every
    failure but one that ends the solve leaves l >= -log2(M).  So with S
    successes below tau = 1 there are at most S + log2(M) - j failures in
    a solve that converges, which adds one success at tau = 1, and at most
    S + log2(M) + 1 - j in one that fails: either way at most 2S + 1 +
    log2(M) <= 2M - 1 + log2(M) = 133 Newton solves, the loop's bound.  A
    problem on which no step converges costs log2(M) + 1 - j: 7 when the
    first step is 1, 1 when it is 1/M.  Each
    Newton solve makes at most 1 + controls.max_iter spectral_map
    evaluations (51 by default), so a solve makes at most 133 * 51 = 6,783
    with the default controls.
    The predictors choose only where a corrector starts, and newton_solve's
    step tests only end a corrector sooner, so neither budget depends on
    them.

    The solve has one exit, where the report is derived from the Corrector
    records of every newton_solve, discarded ones included, kept in order
    as ``correctors``: the polynomial is assembled once, at the last
    converged (tau, x).  continuation_path holds the converged correctors'
    tau values, ascending (to 1 on success), and iterations their
    IterationRecords.  The solve converged when its last corrector did.
    On failure the report is the last converged (tau, x), with the residual
    of its last iteration (within the corrector tolerance below tau = 1);
    when no tau converged that is the seed at tau = 0, with an empty path
    and residual inf.  Its failure reads "<kind> at tau=<tau>: <detail>",
    for the last corrector; this is the one place that text is written.
    """
    loose_tol = max(CORRECTOR_TOL_REL * spec.spectrum.scale, spec.controls.resolved_tol(spec.spectrum))
    x = seed_unknowns(spec.spectrum, spec.lead)
    (c2, c3, c4), rho = _seed_series(spec)
    tau, dtau = 0.0, _first_step(rho)
    correctors = []
    for _ in range(_NEWTON_SOLVE_BUDGET):
        # absorb rounding in tau + dtau so the last step lands exactly on 1
        tau_next = 1.0 if tau + dtau > 1.0 - 1e-12 else tau + dtau
        if tau > 0.0:
            shift = (tau_next - tau) * xdot
        elif tau_next ** 2 * rho <= SEED_SHIFT_MAX:
            shift = tau_next ** 2 * (c2 + tau_next * (c3 + tau_next * c4))
        else:
            shift = None  # the bare seed: no displacement, so no first-step test
        x_next, decomp, corrector = newton_solve(
            spec, x0=x if shift is None else x + shift, tau=tau_next, tol=None if tau_next == 1.0 else loose_tol,
            displacement=0.0 if shift is None else math.sqrt(shift @ shift))
        correctors.append(corrector)
        if not corrector.converged:
            dtau *= 0.5
            if dtau >= 1.0 / MAX_CONTINUATION_STEPS:
                continue
            break
        x, tau = x_next, tau_next
        if tau == 1.0:
            break
        xdot = _tangent(spec, decomp)
        dtau = _next_step(dtau, tau, corrector.iterations)
    # the last converged (tau, x): the seed at tau = 0 when none did
    kept = [c for c in correctors if c.converged]
    last = correctors[-1]
    P = assemble(x, spec, tau)
    detail, leading_ok = _structure_verdict(P, spec)
    return SolveReport(
        polynomial=P,
        x=x,
        residual=kept[-1].iterations[-1].residual if kept else np.inf,
        iterations=tuple(r for c in kept for r in c.iterations),
        correctors=tuple(correctors),
        structure_ok=all(detail) and leading_ok,
        structure_detail=detail,
        leading_ok=leading_ok,
        continuation_path=tuple(c.tau for c in kept),
        converged=last.converged,
        failure=None if last.converged else f"{last.kind.__name__} at tau={last.tau:.6g}: {last.detail}",
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


def verify(P: MatrixPolynomial, spec: ProblemSpec, value_tol: float | None = None) -> VerifyReport:
    """Check a candidate polynomial against the problem: recompute its
    proper values with the solver's own proper_values (the same companion
    eig, so not an independent eigensolver), compare them to the sorted
    targets, and check every coefficient's graph and the leading
    coefficient.  The graph check reads which off-diagonal entries are
    nonzero, not their values: a polynomial whose off-diagonals are tau
    times the prescribed ones passes when its values are the targets.  An
    eigensolve that raises one of SPECTRUM_FAILURES fails the check, and
    so does a positive diagonal A_k that is not the problem's (leading_ok
    False).  A failed check's ``failure`` names every failing check, in
    this order and joined by "; ": the eigensolve's error or the spectral
    residual, "structure mismatch" (a graph) and "leading coefficient
    mismatch"; a passed one's is None.  value_tol is absolute; None
    means max(1e-8, the problem's own Newton tolerance), so the default
    check is never tighter than the solve.  Raises InvariantViolation when value_tol is not
    None or a finite, non-negative real number or when P's size n or
    degree k is not the problem's; proper_values raises the rest of P's
    input errors, LeadingCoefficientError when A_k is not diagonal with a
    finite, positive diagonal and InvariantViolation when another
    coefficient is not finite and symmetric."""
    value_tol = max(1e-8, spec.controls.resolved_tol(spec.spectrum)) if value_tol is None else value_tol
    check_real("value_tol", value_tol)
    if value_tol < 0.0:
        raise InvariantViolation(f"value_tol must be non-negative, got {value_tol}")
    if (P.n, P.degree) != (spec.n, spec.k):
        raise InvariantViolation(
            f"polynomial has n={P.n}, k={P.degree}; the problem has n={spec.n}, k={spec.k}"
        )
    targets = spec.spectrum.sorted_values()
    failures = []
    try:
        decomp = proper_values(P)
        values = decomp.values
        residual = float(np.max(np.abs(values - targets)))
    except SPECTRUM_FAILURES as exc:
        values = np.full_like(targets, np.nan)
        residual = float("inf")
        failures.append(f"{type(exc).__name__}: {exc}")
    else:
        if not residual <= value_tol:
            failures.append(f"spectral residual {residual:.3g} exceeds tolerance {value_tol:.3g}")
    detail, leading_ok = _structure_verdict(P, spec)
    if not all(detail):
        failures.append("structure mismatch")
    if not leading_ok:
        failures.append("leading coefficient mismatch")
    return VerifyReport(
        residual=residual,
        values=values,
        structure_detail=detail,
        structure_ok=all(detail) and leading_ok,
        leading_ok=leading_ok,
        passed=not failures,
        failure="; ".join(failures) or None,
    )
