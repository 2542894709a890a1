"""Shared fixtures: demo problems, golden reference solutions, and
mass-spring-damper system builders used as structured test matrices."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from structured_iep import (
    Graph,
    LeadingDiagonal,
    MatrixPolynomial,
    ProblemSpec,
    SpectralDecomposition,
    TargetSpectrum,
    proper_values,
)
from structured_iep.errors import check_positive

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def load_module(name, path):
    """Run the repository file ROOT / path as a fresh module called name.
    It is in sys.modules while it runs: a dataclass looks its module up
    there."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = np.array([-2.0, -4, -6, -8, -10, -12, -14, -16])

PATH_EDGES = ((1, 2), (2, 3), (3, 4))
G_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4))
H_EDGES = ((1, 3), (3, 4))

# Golden reference solutions for the bundled demo problems, accurate to 10
# significant digits; spectra of these matrices recover the targets to ~1e-10.
PATH4_D_DIAG = np.array([5.86747042533934, 13.6131619433928, 21.6432681505587, 30.8760994807091])
PATH4_K_DIAG = np.array([7.74561103829716, 46.6592230163013, 119.082534340571, 240.017612939283])
LINKED4_D_DIAG = np.array([5.96497947933414, 13.9962664239873, 21.2163179014646, 30.8224361952140])
LINKED4_K_DIAG = np.array([7.94384133116825, 48.0284454626440, 113.276104063793, 239.067195294473])


def quadratic_targets_spec(graphs, epsilon=0.5, **controls):
    from structured_iep import SolverControls

    return ProblemSpec(
        spectrum=TargetSpectrum(values=TARGETS, n=4, k=2),
        lead=LeadingDiagonal(alpha_k=np.ones(4)),
        graphs=graphs,
        epsilon=epsilon,
        controls=SolverControls(**controls),
    )


@pytest.fixture
def path4_spec():
    return quadratic_targets_spec((Graph(4, PATH_EDGES), Graph(4, PATH_EDGES)))


@pytest.fixture
def linked4_spec():
    return quadratic_targets_spec((Graph(4, G_EDGES), Graph(4, H_EDGES)))


def golden_path4_polynomial():
    """The path4 solution assembled from the golden diagonals."""
    from structured_iep import matrix_of_graph

    g = Graph(4, PATH_EDGES)
    y = np.full(3, 0.5)
    return MatrixPolynomial((
        matrix_of_graph(g, PATH4_K_DIAG, y),
        matrix_of_graph(g, PATH4_D_DIAG, y),
        np.eye(4),
    ))


def golden_linked4_polynomial():
    from structured_iep import matrix_of_graph

    return MatrixPolynomial((
        matrix_of_graph(Graph(4, G_EDGES), LINKED4_K_DIAG, np.full(4, 0.5)),
        matrix_of_graph(Graph(4, H_EDGES), LINKED4_D_DIAG, np.full(2, 0.5)),
        np.eye(4),
    ))


def unit_vectors(decomp):
    """The proper vectors of ``decomp`` normalised, with the largest-magnitude
    component made positive (a zero row becomes the uniform unit vector):
    the convention in which the tests compare vectors with references."""
    V = np.array(decomp.companion_rows)
    norms = np.linalg.norm(V, axis=1)
    zero = norms == 0.0
    V[zero] = 1.0
    norms[zero] = np.sqrt(V.shape[1])
    V = V / norms[:, None]
    lead = V[np.arange(len(V)), np.argmax(np.abs(V), axis=1)]
    V[lead < 0] *= -1.0
    return V


def one_slot(decomp, q, s, slot):
    """The q-th pair of ``decomp`` alone, its vector normalised
    (unit_vectors), and the direction row [0 ... 0 E] of coefficient s, E
    one at diagonal entry ``slot`` or at both entries of the edge pair
    ``slot`` (vertices 1-based): jacobian_x(*one_slot(...))[0, -1] is the
    derivative of that value along that slot."""
    n = len(decomp.lead)
    i, j = slot if isinstance(slot, tuple) else (slot, slot)
    B = np.zeros((n, (s + 1) * n))
    B[i - 1, s * n + j - 1] = B[j - 1, s * n + i - 1] = 1.0
    pair = SpectralDecomposition(decomp.values[q:q + 1], unit_vectors(decomp)[q:q + 1], decomp.upper, decomp.lead)
    return pair, B


def perturbed_values(P, s, slot, delta):
    """The ascending proper values of P with one slot of A_s moved by
    delta: diagonal entry ``slot``, or both entries of the symmetric edge
    pair ``slot`` (vertices 1-based)."""
    coeffs = [np.array(c, copy=True) for c in P.coeffs]
    i, j = slot if isinstance(slot, tuple) else (slot, slot)
    coeffs[s][i - 1, j - 1] += delta
    if i != j:
        coeffs[s][j - 1, i - 1] += delta
    return proper_values(MatrixPolynomial(tuple(coeffs))).values


def fd_derivative(P, value_index, s, slot, h=1e-6):
    """Central-difference reference for one slot's derivative: the proper
    value at ascending position ``value_index``, re-solved with the slot
    moved by +-h."""
    plus = perturbed_values(P, s, slot, h)[value_index]
    minus = perturbed_values(P, s, slot, -h)[value_index]
    return (plus - minus) / (2 * h)


def jacobian_fd(P, h=1e-6):
    """Central-difference reference for jacobian_x: column s*n + r from the
    values re-solved with diagonal entry r of A_s moved by +-h, rows in
    ascending order.  A step that is not a positive, finite real number
    raises InvariantViolation (errors.check_positive), and P.checked_row()
    checks P first, so a P outside the theorem's hypothesis raises its
    LeadingCoefficientError or InvariantViolation, also at degree 0, where
    there is no unknown to perturb."""
    check_positive("step", h)
    P.checked_row()
    n, k = P.n, P.degree
    J = np.empty((n * k, n * k))
    for s in range(k):
        for r in range(n):
            J[:, s * n + r] = (perturbed_values(P, s, r + 1, h) - perturbed_values(P, s, r + 1, -h)) / (2.0 * h)
    return J


def count_calls(monkeypatch, module, *names, calls=None):
    """From now on count the calls of each named function of ``module`` in
    calls[name], a new dict unless ``calls`` is given; return calls."""
    calls = {} if calls is None else calls

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        calls[name] = 0
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def derivative(P):
    """Termwise derivative of P: the reference P' for the sensitivity kernels."""
    if P.degree == 0:
        return MatrixPolynomial((np.zeros((P.n, P.n)),))
    return MatrixPolynomial(tuple(s * P.coeffs[s] for s in range(1, P.degree + 1)))


def coefficient_scale(P, z):
    """sum_s ||A_s||_F |z|^s, the natural residual scale of P at z."""
    return sum(np.linalg.norm(c) * abs(z) ** s for s, c in enumerate(P.coeffs))


def graph_edges(A):
    """Reference edge list of a square matrix by an explicit loop: {i, j}
    (1-based, i < j) iff A_ij is nonzero."""
    n = A.shape[0]
    return tuple((i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if abs(A[i, j]) > 0.0)


def linked_system(m, d, k):
    """The generally linked 4-mass system: one wall spring/damper, a chord
    spring k5 between masses 1 and 3, dampers only on {1,3} and {3,4}."""
    m1, m2, m3, m4 = m
    d1, d2, d3 = d
    k1, k2, k3, k4, k5 = k
    M = np.diag([m1, m2, m3, m4])
    D = np.array([
        [d1 + d2, 0.0, -d2, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-d2, 0.0, d2 + d3, -d3],
        [0.0, 0.0, -d3, d3],
    ])
    K = np.array([
        [k1 + k2 + k5, -k2, -k5, 0.0],
        [-k2, k2 + k3, -k3, 0.0],
        [-k5, -k3, k3 + k4 + k5, -k4],
        [0.0, 0.0, -k4, k4],
    ])
    return M, D, K


def random_graph(rng, n, p=0.5):
    edges = tuple(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    )
    return Graph(n=n, edges=edges)


def random_targets(rng, n, k, low=-10.0, high=10.0, min_gap=0.3):
    while True:
        vals = np.sort(rng.uniform(low, high, size=n * k))
        if len(vals) < 2 or np.min(np.diff(vals)) >= min_gap:
            rng.shuffle(vals)
            return vals
