"""Pre-training subgraph sampling and aggregator-normalization statistics.

Uniform node samples drawn before training yield appearance counts C_i and
C_ij; their ratio gives the per-edge normalization constants that debias
subgraph-restricted aggregation. The samples ignore edges, so the counts
depend only on n, the budget, the number of runs and the seed. Only the runs
x n membership matrix S is kept: a node set's counts are S_b^T S_b for its
columns S_b, C_ij off the diagonal and C_i on it, so the self term (i, i) is
never rescaled. The counts become JSON only when `sample-stats` writes
them, for the edges of a given graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetOutOfRange, EmptyStats


@dataclass
class AggregationStats:
    """Sampler runs as the runs x n float 0/1 membership matrix S: entry
    (r, i) is 1 when run r sampled node i. Counts are exact in float64."""

    membership: np.ndarray

    @property
    def runs(self) -> int:
        return self.membership.shape[0]

    def to_json(self, a: np.ndarray) -> str:
        """The stats.json text: runs, C_i, and [i, j, C_ij] rows for every edge
        (nonzero entry i < j) of the adjacency matrix a plus one (i, i) row
        per node, sorted by (i, j)."""
        i, j = np.nonzero(np.triu(a != 0, k=1) | np.eye(len(a), dtype=bool))
        pair_counts = (self.membership.T @ self.membership).astype(np.int64)
        payload = {
            "runs": self.runs,
            "node_counts": np.diagonal(pair_counts).tolist(),
            "edge_counts": np.stack([i, j, pair_counts[i, j]], axis=1).tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def sample_node_subgraph(n: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample `budget` distinct nodes of 0..n-1; returns their sorted ids."""
    if not 1 <= budget <= n:
        raise BudgetOutOfRange(f"budget must be in [1, {n}], got {budget}")
    return np.sort(rng.choice(n, size=budget, replace=False))


def aggregation_matrix(stats: AggregationStats, nodes: np.ndarray | None = None) -> np.ndarray:
    """Normalization constants gamma_ij = C_i / C_ij for every pair of
    `nodes` (default: the whole graph), in that order.

    Only a_hat * gamma is used, and a_hat is 0 off the support of A + I, so
    no graph is needed. Row-wise, hence generally asymmetric: gamma_ij
    divides by C_i, gamma_ji by C_j. A never-sampled pair clamps C_ij to 1,
    which keeps the operator's support. The diagonal is exactly 1 for every
    node sampled at least once (C_ii = C_i); exhaustive sampling (every run
    takes the whole graph) gives 1 everywhere, i.e. unit aggregation.
    """
    if stats.runs < 1:
        raise EmptyStats("aggregation statistics need at least one sampler run")
    s = stats.membership if nodes is None else stats.membership[:, nodes]
    counts = s.T @ s   # C_ij, and C_i on the diagonal: exact integers
    return np.divide(np.diagonal(counts)[:, None], np.maximum(counts, 1.0), out=counts)


def presample(n: int, runs: int, budget: int, seed: int) -> AggregationStats:
    """The membership of `runs` uniform samples of `budget` of the nodes
    0..n-1.

    Run r uses default_rng([seed, r]), so runs are independent and the result
    does not depend on execution order.
    """
    if runs < 1:
        raise EmptyStats(f"runs must be >= 1, got {runs}")
    membership = np.zeros((runs, n))
    for r in range(runs):
        membership[r, sample_node_subgraph(n, budget, np.random.default_rng([seed, r]))] = 1.0
    return AggregationStats(membership)
