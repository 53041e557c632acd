"""The population graph: construction from features and phenotypic measures,
and its normalized propagation operator.

A population graph is its adjacency matrix: a dense symmetric N x N float64
array with zero diagonal and finite weights >= 0. n stays small (hundreds of
nodes), so everything is dense and exact reproducibility wins over sparsity.
Edge weights combine a correlation-distance kernel over per-subject feature
vectors with indicator distances over non-imaging measures (gender-like
categories, age-like thresholded numbers). `build_adjacency` computes the
N x N correlation distances once, resolves the kernel width from them, and
weighs every pair in that buffer, which becomes the adjacency matrix.
`normalize_adjacency` is the one way a graph becomes the operator A_hat that
every layer propagates with, in place: one N x N array from graph to training.
Also hosts the connectome-style feature pipeline: Fisher z-transform of
correlation matrices and ridge-based recursive feature elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import (
    BadAdjacency,
    DegenerateVector,
    NonPositiveSigma,
    OutOfRange,
    ShapeMismatch,
    SingularSystem,
)

QUALITATIVE = "qualitative"
QUANTITATIVE = "quantitative"
# Ridge penalty of the RFE fits.
RIDGE_LAMBDA = 1.0
# Rows of a matrix that build_adjacency weighs and normalize_adjacency divides at a time.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class PhenotypicMeasure:
    """One non-imaging measure with a value per subject.

    Qualitative measures compare by equality; quantitative measures compare
    by |difference| < tau, a finite number > 0 (not a bool).
    """

    name: str
    kind: str
    values: tuple = field(default_factory=tuple)
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in (QUALITATIVE, QUANTITATIVE):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind == QUANTITATIVE:
            tau = self.tau  # a NaN tau would drop every agreement, and True would read as 1
            if isinstance(tau, bool) or not (isinstance(tau, Real) and 0 < tau < np.inf):
                raise ValueError(f"quantitative measure {self.name!r} needs tau > 0, "
                                 f"a finite number, got {tau!r}")

    @cached_property
    def _numbers(self) -> np.ndarray:
        """The values as floats, or as category codes for a qualitative measure."""
        if self.kind == QUANTITATIVE:
            return np.asarray(self.values, dtype=float)
        codes: dict = {}
        return np.array([codes.setdefault(x, len(codes)) for x in self.values], dtype=int)

    def agreement(self, rows: slice = slice(None)) -> np.ndarray:
        """Boolean indicator similarity-distance of subjects `rows` (default:
        all) to every subject: entry (i, j) is True when subject rows[i] and
        subject j are similar on this measure."""
        v = self._numbers
        if self.kind == QUALITATIVE:
            return v[rows, None] == v
        gap = v[rows, None] - v
        return np.abs(gap, out=gap) < self.tau


def _median(values: np.ndarray) -> float:
    """np.median of `values`, the same bits, from a one-pivot partition of
    them in place: the middle value, or for an even count the mean of it and
    the largest value below it. NaN if any value is NaN."""
    k = len(values) // 2
    values.partition(k)   # NaN sorts last, so any NaN lands in values[k:]
    if np.isnan(values[k:].max()):
        return math.nan
    return float(values[k] if len(values) % 2 else np.mean([values[:k].max(), values[k]]))


def _correlation_distances(features: np.ndarray) -> np.ndarray:
    """N x N correlation distances 1 - r_ij, with r the Gram matrix of the
    centred, row-normalised features. DegenerateVector names a constant row."""
    flat = np.ptp(features, axis=1) == 0.0
    if flat.any():
        raise DegenerateVector(f"subject {int(np.argmax(flat))} has a constant feature vector")
    z = features - features.mean(axis=1, keepdims=True)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = z @ z.T
    return np.subtract(1.0, r, out=r)


def build_adjacency(features: np.ndarray, measures: Sequence[PhenotypicMeasure],
                    sigma: float | None = None) -> tuple[np.ndarray, float]:
    """Weighted population graph as its N x N adjacency matrix, and its sigma:
    A_ij = K(i,j) * sum_t d(M_t(i), M_t(j)), with the Gaussian kernel
    K(i,j) = exp(-rho_ij^2 / (2 sigma^2)) over the correlation distances rho,
    1 - Pearson r between the N x F feature rows.

    ShapeMismatch refuses fewer than 3 feature columns, and DegenerateVector
    names a subject whose feature row is constant. sigma=None resolves to the
    median heuristic, the median of the distances over all pairs i < j
    (`_median`: np.median's bits from a one-pivot partition), and the width
    used is returned. NonPositiveSigma refuses a width that is not > 0 (NaN
    included, as from a NaN distance), or one at which rho^2 / (2 sigma^2)
    could overflow: rho <= 2, so 4 / (2 sigma^2) must be finite.

    Symmetric with zero diagonal; pairs whose phenotypic sum is zero weigh 0.
    Formed in the distance buffer `_BLOCK_ROWS` rows at a time, each pair
    i < j mirrored to (j, i): no second N x N array is made.
    """
    features = np.asarray(features, dtype=float)
    n, f = features.shape
    if n < 2:
        raise ValueError(f"need at least 2 subjects, got {n}")
    if f < 3:  # with 2 columns every correlation distance is 0 or 2
        raise ShapeMismatch(f"need at least 3 feature columns, got {f} "
                            "(correlation distances need >= 3 columns)")
    if not measures:
        raise ValueError("need at least one phenotypic measure")
    for m in measures:
        if len(m.values) != n:
            raise ValueError(f"measure {m.name!r} covers {len(m.values)} subjects, expected {n}")
    a = _correlation_distances(features)
    if sigma is None:   # one buffer of the pairs i < j, gathered row by row
        sigma = _median(np.concatenate([a[i, i + 1:] for i in range(n - 1)]))
    twice_square = 2.0 * float(sigma) * float(sigma) if sigma > 0 else 0.0
    if not (twice_square > 0 and math.isfinite(4.0 / twice_square)):
        raise NonPositiveSigma(f"sigma must be > 0 with 4 / (2 sigma^2) finite, got {sigma}")
    a *= a
    a /= -2.0 * sigma * sigma   # the same bits as -(rho^2) / (2 sigma^2)
    np.exp(a, out=a)
    count_type = np.min_scalar_type(len(measures))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        agreements = np.zeros(a[rows].shape, dtype=count_type)
        for m in measures:
            agreements += m.agreement(rows)
        a[rows] *= agreements
        tile = np.triu(a[rows, rows], k=1)   # the block's own pairs i < j
        a[rows, rows] = tile + tile.T
        a[rows, :start] = a[:start, rows].T
    return a, sigma


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


def connectome_features(corr: np.ndarray) -> np.ndarray:
    """Fisher z-transform of the strict upper triangle, vectorized row-wise,
    of each matrix in a stack (..., r, r): one vector of r(r-1)/2 per matrix.

    Each is a symmetric correlation matrix with unit diagonal and
    off-diagonal entries strictly inside (-1, 1); OutOfRange names the first
    entry that is not, by its flat index and, in a stack, its matrix.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim < 2 or corr.shape[-1] != corr.shape[-2]:
        raise ShapeMismatch(f"correlation matrix must be square, got {corr.shape}")
    rows, cols = np.triu_indices(corr.shape[-1], k=1)
    upper = corr[..., rows, cols]
    if np.any(np.abs(upper) >= 1.0):
        *matrix, bad = np.argwhere(np.abs(upper) >= 1.0)[0]
        where = f" of matrix {', '.join(map(str, matrix))}" if matrix else ""
        raise OutOfRange(f"off-diagonal correlation at flat index {bad}{where} is "
                         f"{upper[(*matrix, bad)]}, needs |r| < 1")
    return np.arctanh(upper)


def rfe_ridge(
    features: np.ndarray,
    labels: Sequence[float],
    target_dim: int,
) -> np.ndarray:
    """Recursive feature elimination with a closed-form ridge fit.

    Repeatedly solves (X^T X + RIDGE_LAMBDA I) w = X^T y on the surviving
    columns and drops the 10% of them (at least one, at most the surplus over
    target_dim) with smallest |w|, ties dropping the lower column index first,
    until target_dim remain. Returns the surviving column indices in
    ascending order.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, f = x.shape
    if y.shape != (n,):
        raise ShapeMismatch(f"labels shape {y.shape} does not match {n} rows")
    if not 0 < target_dim <= f:
        raise ValueError(f"target_dim must be in [1, {f}], got {target_dim}")
    remaining = list(range(f))
    while len(remaining) > target_dim:
        xs = x[:, remaining]
        gram = xs.T @ xs + RIDGE_LAMBDA * np.eye(len(remaining))
        try:
            w = np.linalg.solve(gram, xs.T @ y)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"ridge system singular at lambda={RIDGE_LAMBDA}") from exc
        k = min(max(1, len(remaining) // 10), len(remaining) - target_dim)
        drop = set(elimination_order(w, remaining)[:k])
        remaining = [c for c in remaining if c not in drop]
    return np.array(remaining, dtype=int)


def elimination_order(weights, columns) -> list[int]:
    """Columns sorted by |weight| ascending; exact ties break toward the
    lower column index, so elimination is fully deterministic."""
    order = np.lexsort((columns, np.abs(np.asarray(weights, dtype=float))))
    return [columns[i] for i in order]
