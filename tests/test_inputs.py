"""Every library entry point that takes a vector applies errors.real_vector's
rule: integer or floating entries in one dimension, of the expected length,
all finite.  Every one that takes a number applies errors.check_real's: a
finite real number, no bool, text or complex, and no integer beyond float
range; a tolerance is positive (errors.check_positive) or, verify's,
non-negative.  Bad input raises InvariantViolation at every entry point:
a StructuredIEPError and a ValueError."""

import numpy as np
import pytest

from structured_iep import (
    Graph,
    InvariantViolation,
    LeadingDiagonal,
    MatrixPolynomial,
    ProblemSpec,
    SolverControls,
    StructuredIEPError,
    TargetSpectrum,
    assemble,
    jacobian_x,
    matrix_of_graph,
    newton_solve,
    proper_values,
    seed_unknowns,
    spectral_map,
    verify,
)

from conftest import PATH_EDGES, TARGETS, quadratic_targets_spec

PATH4 = Graph(4, PATH_EDGES)


def path4_spec(lead=np.ones(4), offdiag=None):
    return ProblemSpec(
        spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
        lead=LeadingDiagonal(alpha_k=lead),
        graphs=(PATH4, PATH4),
        offdiag_values=offdiag,
    )


# entry point -> (the expected length, a call on one vector)
SITES = {
    "TargetSpectrum.values": (8, lambda v: TargetSpectrum(values=v, n=4, k=2)),
    "LeadingDiagonal.alpha_k": (4, lambda v: path4_spec(lead=v)),
    "ProblemSpec.offdiag_values": (3, lambda v: path4_spec(offdiag=(v, None))),
    "newton_solve.x0": (8, lambda v: newton_solve(quadratic_targets_spec((PATH4, PATH4)), x0=v)),
    "matrix_of_graph.diag": (4, lambda v: matrix_of_graph(PATH4, v, np.full(3, 0.5))),
    "matrix_of_graph.offdiag": (3, lambda v: matrix_of_graph(PATH4, np.ones(4), v)),
    "assemble.x": (8, lambda v: assemble(v, quadratic_targets_spec((PATH4, PATH4)))),
}

# bad input -> the vector it makes for an expected length m
BAD = {
    "bools": lambda m: [True] * m,
    "complex": lambda m: np.full(m, 1.0 + 1.0j),
    "text": lambda m: ["1"] * m,
    "ragged": lambda m: [[1.0]] * (m - 1) + [[1.0, 2.0]],
    "nested": lambda m: [[1.0] * m],
    "wrong-length": lambda m: np.ones(m + 1),
    "nan": lambda m: np.r_[np.nan, np.ones(m - 1)],
    "inf": lambda m: np.r_[np.ones(m - 1), np.inf],
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("site", SITES)
def test_a_bad_vector_raises_the_sites_error(site, bad):
    length, call = SITES[site]
    # a LeadingDiagonal has any length: the ProblemSpec compares it with n
    wrong_lead = (site, bad) == ("LeadingDiagonal.alpha_k", "wrong-length")
    with pytest.raises(InvariantViolation, match="has wrong length" if wrong_lead else "must be a finite real vector"):
        call(BAD[bad](length))


QUADRATIC = quadratic_targets_spec((PATH4, PATH4))
SEED = seed_unknowns(QUADRATIC.spectrum, QUADRATIC.lead)

# entry point -> a call on one number
NUMBER_SITES = {
    "ProblemSpec.epsilon": lambda v: ProblemSpec(
        spectrum=QUADRATIC.spectrum, lead=QUADRATIC.lead, graphs=QUADRATIC.graphs, epsilon=v),
    "SolverControls.newton_tol": lambda v: SolverControls(newton_tol=v),
    "newton_solve.tol": lambda v: newton_solve(QUADRATIC, tol=v),
    "newton_solve.tau": lambda v: newton_solve(QUADRATIC, tau=v),
    "newton_solve.displacement": lambda v: newton_solve(QUADRATIC, displacement=v),
    "assemble.tau": lambda v: assemble(seed_unknowns(QUADRATIC.spectrum, QUADRATIC.lead), QUADRATIC, v),
    "verify.value_tol": lambda v: verify(assemble(SEED, QUADRATIC), QUADRATIC, value_tol=v),
}


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)])
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_an_integer_beyond_float_range_raises_the_sites_error(site, value):
    # math.isfinite raises OverflowError on such an integer: check_real
    # reports it as InvariantViolation
    with pytest.raises(InvariantViolation, match="must be a real number and finite, got a value beyond float range"):
        NUMBER_SITES[site](value)


# bad input -> a number that breaks check_real's rule
BAD_NUMBERS = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "bool": True,
    "numpy-bool": np.True_,
    "text": "1e-8",
    "complex": 1e-8 + 0j,
}


@pytest.mark.parametrize("bad", BAD_NUMBERS)
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_a_bad_number_raises_the_sites_error(site, bad):
    with pytest.raises(InvariantViolation, match="must be a real number"):
        NUMBER_SITES[site](BAD_NUMBERS[bad])


# tolerance -> (a call on one finite number, the message of one out of range)
TOLERANCE_SITES = {
    "SolverControls.newton_tol": (lambda v: SolverControls(newton_tol=v), "newton_tol must be positive"),
    "newton_solve.tol": (lambda v: newton_solve(QUADRATIC, tol=v), "tol must be positive"),
    "newton_solve.displacement": (lambda v: newton_solve(QUADRATIC, displacement=v),
                                  "displacement must be non-negative"),
    "verify.value_tol": (lambda v: verify(assemble(SEED, QUADRATIC), QUADRATIC, value_tol=v),
                         "value_tol must be non-negative"),
}


@pytest.mark.parametrize("value", [-1.0, -5e-324], ids=["negative", "least-negative"])
@pytest.mark.parametrize("site", TOLERANCE_SITES)
def test_a_negative_tolerance_raises_the_sites_error(site, value):
    call, message = TOLERANCE_SITES[site]
    with pytest.raises(InvariantViolation, match=message):
        call(value)


@pytest.mark.parametrize("site", ["SolverControls.newton_tol", "newton_solve.tol"])
def test_a_zero_newton_tolerance_raises_the_sites_error(site):
    # verify's value_tol may be 0: an exact check
    call, message = TOLERANCE_SITES[site]
    with pytest.raises(InvariantViolation, match=f"{message}, got 0"):
        call(0)


@pytest.mark.parametrize("offdiag", [0.5, 3, object()])
def test_offdiag_values_that_are_not_a_sequence_raise_invariant_violation(offdiag):
    with pytest.raises(InvariantViolation, match="offdiag_values must be None or 2 vectors"):
        path4_spec(offdiag=offdiag)


def test_invariant_violation_is_a_value_error():
    # a caller that catches ValueError keeps working: numpy's LinAlgError is one too
    assert issubclass(InvariantViolation, ValueError)
    assert issubclass(InvariantViolation, StructuredIEPError)


# entry point -> (a call on input of the wrong shape or range that neither
# rule above sees, its message)
SHAPE_SITES = {
    "spectral_map.x": (lambda: spectral_map(np.ones(9), QUADRATIC), r"x has shape \(9,\), expected \(8,\)"),
    "MatrixPolynomial.coeffs": (lambda: MatrixPolynomial((np.zeros((2, 3)),)),
                                r"coefficient shape \(2, 3\) != \(2,2\)"),
    "MatrixPolynomial.ragged": (lambda: MatrixPolynomial(([[1.0], [1.0, 2.0]], np.eye(2))),
                                "coefficient must be a real square matrix, got a ragged sequence"),
    "MatrixPolynomial.text": (lambda: MatrixPolynomial(([["1", "0"], ["0", "1"]], np.eye(2))),
                              r"coefficient must be a real square matrix, got <U1 \(2, 2\)"),
    "MatrixPolynomial.0-d": (lambda: MatrixPolynomial((1.0, np.eye(2))),
                             r"coefficient must be a real square matrix, got float64 \(\)"),
    # numpy would drop the imaginary part with a ComplexWarning
    "MatrixPolynomial.complex": (lambda: MatrixPolynomial((np.eye(2) * 1j, np.eye(2))),
                                 r"coefficient must be a real square matrix, got complex128 \(2, 2\)"),
    # an empty polynomial would fail later, in an eigensolve or as an empty Jacobian
    "MatrixPolynomial.empty": (lambda: MatrixPolynomial((np.zeros((0, 0)), np.zeros((0, 0)))),
                               "coefficient must be at least 1 x 1, got 0 x 0"),
    "proper_values.degree": (lambda: proper_values(MatrixPolynomial((np.eye(2),))),
                             "cannot linearize a degree-0 polynomial"),
    # a values-only trial's rows must match its values, one row of n per value
    "spectral_map.rows": (lambda: spectral_map(SEED, QUADRATIC, rows=np.ones((8, 3))),
                          r"rows has shape \(8, 3\), expected \(8, 4\)"),
    # a corrector's given start vectors: the same rule, at its start's eigensolve
    "newton_solve.rows": (lambda: newton_solve(QUADRATIC, rows=np.ones((4, 8))),
                          r"rows has shape \(4, 8\), expected \(8, 4\)"),
}


@pytest.mark.parametrize("site", SHAPE_SITES)
def test_bad_input_raises_invariant_violation(site):
    call, message = SHAPE_SITES[site]
    with pytest.raises(InvariantViolation, match=message) as exc:
        call()
    assert isinstance(exc.value, StructuredIEPError)


# bad input -> a direction row that breaks errors.real_row's rule at n = 4
BAD_DIRECTIONS = {
    "wrong-columns": np.ones((4, 5)),
    "wrong-rows": np.ones((3, 8)),
    "no-columns": np.ones((4, 0)),
    "one-dimension": np.ones(8),
    "ragged": [[1.0] * 8] * 3 + [[1.0]],
    "bools": np.ones((4, 8), dtype=bool),
    "complex": np.ones((4, 8)) * 1j,
    "nan": np.r_[[np.full(8, np.nan)], np.ones((3, 8))],
    "inf": np.r_[np.ones((3, 8)), [np.full(8, np.inf)]],
}


@pytest.mark.parametrize("bad", BAD_DIRECTIONS)
def test_a_bad_direction_row_raises_invariant_violation(bad):
    decomp = spectral_map(SEED, QUADRATIC, 0.0)  # the diagonal seed
    with pytest.raises(InvariantViolation, match=r"direction must be a finite real coefficient row of shape \(4, 4j\)"):
        jacobian_x(decomp, BAD_DIRECTIONS[bad])
