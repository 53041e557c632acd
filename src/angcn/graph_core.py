"""The normalized propagation operator of a population graph.

A population graph is its adjacency matrix: a dense symmetric N x N float64
array with zero diagonal and finite weights >= 0. n stays small (hundreds of
nodes), so everything is dense and exact reproducibility wins over sparsity.
`normalize_adjacency` is the one way a graph becomes the operator A_hat that
every layer propagates with, in place: one N x N array from graph to training.
"""

from __future__ import annotations

import numpy as np

from .errors import BadAdjacency, ShapeMismatch

# Rows of a matrix that build_adjacency weighs and normalize_adjacency divides at a time.
_BLOCK_ROWS = 64


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """The GCN operator D^{-1/2} (A + I) D^{-1/2} of the adjacency matrix a.

    ShapeMismatch refuses a matrix that is not square, and BadAdjacency one
    that is not symmetric, finite, >= 0 and zero on the diagonal (leaving it
    as it was), so every degree is >= 1 and the spectral radius is <= 1. A
    float64 a itself (any other input: a float64 copy) becomes A + I, divided
    in place by sqrt(d_i d_j) and returned, so the output is exactly
    symmetric and a is spent: take its graph_digest first. The divisors are
    formed for `_BLOCK_ROWS` rows at a time: no second N x N array is made.
    """
    a_tilde = np.asarray(a, dtype=float)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ShapeMismatch(f"adjacency matrix must be square, got shape {a_tilde.shape}")
    n, low, high = len(a_tilde), a_tilde.min(initial=0.0), a_tilde.max(initial=0.0)
    if not 0.0 <= low <= high < np.inf:  # NaN fails every comparison
        raise BadAdjacency(f"adjacency weights must be finite and >= 0, got min {low}, max {high}")
    if np.diagonal(a_tilde).any():
        raise BadAdjacency("adjacency diagonal must be 0 (the unit self-loops are added here)")
    if not np.array_equal(a_tilde, a_tilde.T):
        raise BadAdjacency("adjacency matrix is not symmetric")
    a_tilde[np.diag_indices(n)] += 1.0
    degrees = a_tilde.sum(axis=1)
    for start in range(0, n, _BLOCK_ROWS):
        scale = np.multiply.outer(degrees[start:start + _BLOCK_ROWS], degrees)
        a_tilde[start:start + _BLOCK_ROWS] /= np.sqrt(scale, out=scale)
    return a_tilde
