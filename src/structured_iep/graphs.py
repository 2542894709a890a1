"""Loopless simple graphs on labeled vertices and their symmetric matrix patterns.

Vertices are 1-based in every external format and converted to 0-based
indices only inside matrix routines.  Edges are stored canonically as
(i, j) with i < j, sorted lexicographically; that order also fixes how
off-diagonal value vectors are indexed everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphFormatError, check_integer, real_vector


@dataclass(frozen=True)
class Graph:
    """A loopless undirected graph: the zero/nonzero pattern of one coefficient."""

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        check_integer("vertex count", self.n)
        if self.n < 1:
            raise GraphFormatError(f"vertex count must be positive, got {self.n}")
        seen = set()
        canon = []
        for e in self.edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {e!r} is not a pair of vertices") from None
            for vertex in (i, j):
                check_integer("vertex", vertex)
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GraphFormatError(f"edge {{{i},{j}}} out of range for n={self.n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {{{key[0]},{key[1]}}}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def matrix_of_graph(g: Graph, diag, offdiag) -> np.ndarray:
    """Symmetric matrix with ``diag`` on the diagonal and ``offdiag`` on the
    edges of ``g`` (canonical edge order); structural zeros elsewhere.  A
    bad vector (see errors.real_vector) raises InvariantViolation."""
    diag = real_vector("diag", diag, g.n)
    offdiag = real_vector("offdiag", offdiag, g.num_edges)
    A = np.zeros((g.n, g.n))
    A[np.diag_indices(g.n)] = diag
    for val, (i, j) in zip(offdiag, g.edges):
        A[i - 1, j - 1] = val
        A[j - 1, i - 1] = val
    return A

