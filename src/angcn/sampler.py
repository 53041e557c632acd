"""Pre-training subgraph sampling and aggregator-normalization statistics.

Uniform node samples drawn before training yield appearance counts C_i and
C_ij; their ratio gives the per-edge normalization constants that debias
subgraph-restricted aggregation. The samples ignore edges, so the counts
depend only on n, the budget, the number of runs and the seed. Both live in
one integer matrix S^T S, with C_ij off the diagonal and C_i on it, so the
self term (i, i) is never rescaled. The counts become JSON only when
`sample-stats` writes them, for the edges of a given graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetOutOfRange, EmptyStats
from .graph_core import Graph


@dataclass
class AggregationStats:
    """Appearance counts over sampler runs.

    pair_counts = S^T S for the runs x n 0/1 sample-membership matrix S, as
    integers: entry (i, j) is C_ij, the number of samples containing both i
    and j, and the diagonal entry (i, i) is C_i, the number containing i.
    """

    runs: int
    pair_counts: np.ndarray

    @property
    def node_counts(self) -> np.ndarray:
        return np.diagonal(self.pair_counts)

    def to_json(self, g: Graph) -> str:
        """The stats.json text: runs, C_i, and [i, j, C_ij] rows for every edge
        of g plus one (i, i) row per node, sorted by (i, j)."""
        i = np.concatenate([g.src, np.arange(g.n)])
        j = np.concatenate([g.dst, np.arange(g.n)])
        order = np.lexsort((j, i))
        i, j = i[order], j[order]
        payload = {
            "runs": self.runs,
            "node_counts": self.node_counts.tolist(),
            "edge_counts": np.stack([i, j, self.pair_counts[i, j]], axis=1).tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def sample_node_subgraph(n: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample `budget` distinct nodes of 0..n-1; returns their sorted ids."""
    if not 1 <= budget <= n:
        raise BudgetOutOfRange(f"budget must be in [1, {n}], got {budget}")
    return np.sort(rng.choice(n, size=budget, replace=False))


def aggregation_matrix(stats: AggregationStats) -> np.ndarray:
    """Normalization constants gamma_ij = C_i / C_ij for every node pair.

    Only a_hat * gamma is used, and a_hat is 0 off the support of A + I, so
    no graph is needed. Row-wise, hence generally asymmetric: gamma_ij
    divides by C_i, gamma_ji by C_j. A never-sampled pair clamps C_ij to 1,
    which keeps the operator's support. The diagonal is exactly 1 for every
    node sampled at least once (C_ii = C_i); exhaustive sampling (every run
    takes the whole graph) gives 1 everywhere, i.e. unit aggregation.
    """
    if stats.runs < 1:
        raise EmptyStats("aggregation statistics need at least one sampler run")
    gamma = np.maximum(stats.pair_counts, 1).astype(float)
    np.divide(stats.node_counts[:, None], gamma, out=gamma)
    return gamma


def presample(n: int, runs: int, budget: int, seed: int) -> AggregationStats:
    """Tally appearance counts over `runs` uniform samples of `budget` of the
    nodes 0..n-1.

    Run r uses default_rng([seed, r]), so runs are independent and the result
    does not depend on execution order.
    """
    if runs < 1:
        raise EmptyStats(f"runs must be >= 1, got {runs}")
    membership = np.zeros((runs, n))
    for r in range(runs):
        membership[r, sample_node_subgraph(n, budget, np.random.default_rng([seed, r]))] = 1.0
    # a float product is exact for integer counts and runs on BLAS
    return AggregationStats(runs, (membership.T @ membership).astype(np.int64))
