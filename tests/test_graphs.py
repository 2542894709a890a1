import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structured_iep import (
    Graph,
    GraphFormatError,
    InvariantViolation,
    matrix_of_graph,
    problems,
)

from conftest import G_EDGES, H_EDGES, PATH_EDGES, graph_edges, linked_system


class TestParseGraph:
    """The one graph form of a problem file: {"edges": [[i, j], ...]}."""

    def test_path_on_four(self):
        g = problems._parse_graph_entry({"edges": [[1, 2], [2, 3], [3, 4]]}, 4, 0)
        assert g.n == 4
        assert g.edges == PATH_EDGES

    def test_empty_graph(self):
        g = problems._parse_graph_entry({"edges": []}, 4, 0)
        assert g.edges == ()

    def test_two_edge_graph(self):
        g = problems._parse_graph_entry({"edges": [[3, 4], [1, 3]]}, 4, 0)
        assert g.edges == H_EDGES


class TestGraph:
    def test_reversed_pairs_canonicalized(self):
        g = Graph(4, ((2, 1), (4, 3)))
        assert g.edges == ((1, 2), (3, 4))

    @pytest.mark.parametrize("edges", [
        ((2, 2),), ((1, 5),), ((0, 1),), ((1, 2), (2, 1)),
    ], ids=["self-loop", "above-n", "zero", "duplicate"])
    def test_rejects(self, edges):
        with pytest.raises(GraphFormatError):
            Graph(4, edges)

    # a vertex that is not an integer breaks check_integer's rule, as
    # TargetSpectrum's n and k do: InvariantViolation.  An edge that is not
    # a pair is the graph's own fault: GraphFormatError, a subclass
    @pytest.mark.parametrize("edge, error", [
        ((1.0, 2), InvariantViolation), ((2, np.float64(3.0)), InvariantViolation), ((True, 2), InvariantViolation),
        (("a", 2), InvariantViolation), ("12", InvariantViolation),
        ((1, 2, 3), GraphFormatError), ((1,), GraphFormatError), (5, GraphFormatError),
    ], ids=["float", "numpy-float", "bool", "str-label", "str-pair", "triple", "single", "int"])
    def test_edges_that_are_not_integer_pairs_rejected(self, edge, error):
        with pytest.raises(InvariantViolation, match="vertex must be an integer|is not a pair of vertices") as exc:
            Graph(4, ((3, 4), edge))
        assert type(exc.value) is error

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "4"], ids=["float", "integral-float", "bool", "str"])
    def test_vertex_count_of_the_wrong_type_rejected(self, n):
        with pytest.raises(InvariantViolation, match="vertex count must be an integer") as exc:
            Graph(n)
        assert type(exc.value) is InvariantViolation


class TestMatrixOfGraph:
    def test_two_edge_pattern(self):
        g = Graph(4, H_EDGES)
        A = matrix_of_graph(g, [1.0, 2.0, 3.0, 4.0], [10.0, 20.0])
        expected = np.array([
            [1.0, 0.0, 10.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [10.0, 0.0, 3.0, 20.0],
            [0.0, 0.0, 20.0, 4.0],
        ])
        assert np.array_equal(A, expected)

    def test_empty_graph_gives_diagonal(self):
        d = np.array([3.0, -1.0, 7.0])
        A = matrix_of_graph(Graph(3), d, [])
        assert np.array_equal(A, np.diag(d))

    def test_tridiagonal_half_offdiagonals(self):
        A = matrix_of_graph(Graph(4, PATH_EDGES), [6.0, 14.0, 22.0, 30.0], [0.5] * 3)
        assert np.array_equal(np.diag(A), [6, 14, 22, 30])
        assert np.array_equal(np.diag(A, 1), [0.5, 0.5, 0.5])
        assert A[0, 2] == 0.0 and A[0, 3] == 0.0 and A[1, 3] == 0.0

    def test_length_mismatch_rejected(self):
        g = Graph(4, PATH_EDGES)
        with pytest.raises(ValueError):
            matrix_of_graph(g, [1.0, 2.0, 3.0], [0.5] * 3)
        with pytest.raises(ValueError):
            matrix_of_graph(g, [1.0, 2.0, 3.0, 4.0], [0.5] * 2)


class TestGraphOfMatrix:
    """The loop reference edge list (conftest.graph_edges) that the round
    trip and the structure verdict are checked against."""

    def test_linked_stiffness_pattern(self):
        _, D, K = linked_system([1, 1, 1, 1], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert graph_edges(K) == G_EDGES
        assert graph_edges(D) == H_EDGES

    def test_diagonal_matrix_is_empty(self):
        assert graph_edges(np.diag([1.0, 2.0, 3.0])) == ()


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges))
                  if all_edges else st.just([]))
    return Graph(n=n, edges=tuple(chosen))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_round_trip_with_nonzero_offdiagonals(g, data):
    diag = np.array(data.draw(st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=g.n, max_size=g.n)))
    nonzero = st.one_of(st.floats(0.01, 100), st.floats(-100, -0.01))
    offdiag = np.array(data.draw(st.lists(
        nonzero, min_size=g.num_edges, max_size=g.num_edges)))
    A = matrix_of_graph(g, diag, offdiag)
    assert Graph(g.n, graph_edges(A)) == g


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_output_bitwise_symmetric_with_exact_zeros(g):
    rng = np.random.default_rng(g.n * 1000 + g.num_edges)
    A = matrix_of_graph(g, rng.normal(size=g.n), rng.normal(size=g.num_edges))
    assert np.array_equal(A, A.T)
    edge_set = set(g.edges)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (i + 1, j + 1) not in edge_set:
                assert A[i, j] == 0.0 and A[j, i] == 0.0

