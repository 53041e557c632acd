"""Population graph construction from features and phenotypic measures.

Edge weights combine a correlation-distance kernel over per-subject feature
vectors with indicator distances over non-imaging measures (gender-like
categories, age-like thresholded numbers). The graph stays in arrays:
PopulationGraphSpec computes the N x N correlation distances once and
resolves the kernel width from them, and build_adjacency reuses both, weighs
only the pairs i < j and hands Graph one (E, 3) edge array. Also hosts the
connectome-style feature pipeline: Fisher z-transform of correlation matrices and ridge-based
recursive feature elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVector,
    NonPositiveSigma,
    OutOfRange,
    ShapeMismatch,
    SingularSystem,
)
from .graph_core import Graph

QUALITATIVE = "qualitative"
QUANTITATIVE = "quantitative"
# Ridge penalty of the RFE fits.
RIDGE_LAMBDA = 1.0


@dataclass(frozen=True)
class PhenotypicMeasure:
    """One non-imaging measure with a value per subject.

    Qualitative measures compare by equality; quantitative measures compare
    by |difference| < tau.
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
            if self.tau is None or self.tau <= 0:
                raise ValueError(f"quantitative measure {self.name!r} needs tau > 0")

    def agreement(self) -> np.ndarray:
        """N x N boolean indicator similarity-distance: entry (i, j) is True
        when subjects i and j are similar on this measure."""
        if self.kind == QUALITATIVE:
            codes: dict = {}
            v = np.array([codes.setdefault(x, len(codes)) for x in self.values], dtype=int)
            return v[:, None] == v[None, :]
        v = np.asarray(self.values, dtype=float)
        gap = np.subtract.outer(v, v)
        return np.abs(gap, out=gap) < self.tau


@dataclass
class PopulationGraphSpec:
    """Inputs for adjacency construction: N x F features, measures, kernel width.

    Construction computes `distances`, the N x N correlation distances
    1 - Pearson r between feature rows, once; DegenerateVector names a
    subject whose feature row is constant. sigma=None resolves to the median
    heuristic, the median of the distances over all pairs i < j, so `sigma`
    is always the width build_adjacency uses. A width that is not > 0 (NaN
    included) raises NonPositiveSigma.
    """

    features: np.ndarray
    measures: list[PhenotypicMeasure]
    sigma: float | None = None
    distances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        n = self.features.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 subjects, got {n}")
        if not self.measures:
            raise ValueError("need at least one phenotypic measure")
        for m in self.measures:
            if len(m.values) != n:
                raise ValueError(
                    f"measure {m.name!r} covers {len(m.values)} subjects, expected {n}"
                )
        self.distances = _correlation_distances(self.features)
        if self.sigma is None:
            upper = np.arange(n)[:, None] < np.arange(n)   # the pairs i < j, row-major
            self.sigma = float(np.median(self.distances[upper], overwrite_input=True))
        if not self.sigma > 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {self.sigma}")


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


def build_adjacency(spec: PopulationGraphSpec) -> Graph:
    """Weighted population graph: A_ij = K(i,j) * sum_t d(M_t(i), M_t(j)), with
    the Gaussian kernel K(i,j) = exp(-rho_ij^2 / (2 sigma^2)) over the spec's
    correlation distances rho and width sigma.

    Symmetric with zero diagonal; pairs whose phenotypic sum is zero get no
    edge. Edges come in row-major (i, j) order.
    """
    rho, sigma, n = spec.distances, spec.sigma, len(spec.distances)
    upper = np.arange(n)[:, None] < np.arange(n)   # the pairs i < j, row-major
    weights = rho[upper]   # one entry per pair i < j, worked on in place
    weights *= weights
    weights /= -2.0 * sigma * sigma   # the same bits as -(rho^2) / (2 sigma^2)
    np.exp(weights, out=weights)
    weights *= sum(m.agreement()[upper] for m in spec.measures)
    keep = weights > 0.0   # a zero phenotypic sum gives no edge
    upper[upper] = keep
    edges = np.column_stack((*np.nonzero(upper), weights[keep]))
    return Graph(n=n, edges=edges)


def connectome_features(corr: np.ndarray) -> np.ndarray:
    """Fisher z-transform of the strict upper triangle, vectorized row-wise.

    Input is a symmetric correlation matrix with unit diagonal and
    off-diagonal entries strictly inside (-1, 1); output has length
    n(n-1)/2.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ShapeMismatch(f"correlation matrix must be square, got {corr.shape}")
    iu = np.triu_indices(corr.shape[0], k=1)
    upper = corr[iu]
    if np.any(np.abs(upper) >= 1.0):
        bad = int(np.argmax(np.abs(upper) >= 1.0))
        raise OutOfRange(
            f"off-diagonal correlation at flat index {bad} is {upper[bad]}, needs |r| < 1"
        )
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
