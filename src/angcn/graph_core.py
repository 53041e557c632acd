"""The population graph and its normalized propagation operator.

Matrices are plain float64 numpy arrays in row-major order; n stays small
(hundreds of nodes), so everything is dense and exact reproducibility wins
over sparsity. `normalize_adjacency` is the one way a graph becomes the
operator A_hat that every layer propagates with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadEdge

# Rows of A + I that normalize_adjacency divides at a time.
_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph over nodes 0..n-1.

    `edges` is one read-only (E, 3) float array of (i, j, weight) rows, built
    from any sequence of such triples: each edge once, integer 0 <= i < j < n,
    finite weight >= 0 (a BadEdge names the first bad edge and its row), and no
    self-loops (`normalize_adjacency` adds a unit one on every node). The
    columns are also kept as `src`, `dst` (ints) and `weight`. Equality is
    identity.
    """

    n: int
    edges: np.ndarray = ()
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        edges = np.array(self.edges, dtype=float).reshape(len(self.edges), 3)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        i, j, w = edges.T
        out_of_range = ~((0 <= i) & (i < j) & (j < self.n))
        key = np.where(out_of_range, -1.0, i * self.n + j)
        order = np.argsort(key, kind="stable")   # equal keys stay in edge order
        duplicate = np.zeros(len(key), dtype=bool)
        duplicate[order[1:]] = np.diff(key[order]) == 0.0
        non_finite = ~np.isfinite(w)
        bad = out_of_range | duplicate | non_finite | (w < 0)
        if bad.any():
            k = int(np.argmax(bad))
            edge = f"edge ({i[k]:g}, {j[k]:g})"
            if out_of_range[k]:
                raise BadEdge(f"{edge} is not 0 <= i < j < {self.n}", k)
            if duplicate[k]:
                raise BadEdge(f"duplicate {edge}", k)
            if non_finite[k]:
                raise BadEdge(f"{edge} has non-finite weight {w[k]}", k)
            raise BadEdge(f"{edge} has negative weight {w[k]}", k)
        object.__setattr__(self, "src", i.astype(int))
        object.__setattr__(self, "dst", j.astype(int))
        object.__setattr__(self, "weight", w)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix A with zero diagonal."""
        a = np.zeros((self.n, self.n))
        a[self.src, self.dst] = self.weight
        a[self.dst, self.src] = self.weight
        return a


def normalize_adjacency(g: Graph) -> np.ndarray:
    """The GCN operator D^{-1/2} (A + I) D^{-1/2} of g.

    Computed in place as an elementwise division of A + I by sqrt(d_i d_j),
    so the output is exactly symmetric. The divisors are formed for
    `_BLOCK_ROWS` rows at a time, so the only N x N array is the result. A
    Graph's weights are finite and >= 0, so every degree is >= 1 and the
    spectral radius is <= 1.
    """
    a_tilde = g.adjacency()
    a_tilde[np.diag_indices(g.n)] += 1.0
    degrees = a_tilde.sum(axis=1)
    for start in range(0, g.n, _BLOCK_ROWS):
        scale = np.multiply.outer(degrees[start:start + _BLOCK_ROWS], degrees)
        a_tilde[start:start + _BLOCK_ROWS] /= np.sqrt(scale, out=scale)
    return a_tilde
