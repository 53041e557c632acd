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

from typing import Iterator

import numpy as np

from .errors import BudgetOutOfRange, EmptyStats
from .popgraph import _BLOCK_ROWS


def json_chunks(s: np.ndarray, a: np.ndarray) -> Iterator[str]:
    """The stats.json text of the membership S, json.dumps(payload, indent=2,
    sort_keys=True) of the payload {runs, node_counts: C_i, edge_counts:
    [i, j, C_ij] for every edge (nonzero entry i < j) of the adjacency matrix
    a and each (i, i), sorted by (i, j)}, one matrix row's edges at a time.
    C_ij is formed `_BLOCK_ROWS` rows at a time, as S[:, rows]^T S, so no
    N x N array and no whole-payload text is made."""
    node_counts: list[str] = []
    yield '{\n  "edge_counts": ['
    for start in range(0, len(a), _BLOCK_ROWS):
        counts = (s[:, start:start + _BLOCK_ROWS].T @ s).astype(np.int64)
        for i, row in enumerate(counts, start):
            cols = [i, *(np.flatnonzero(a[i, i + 1:]) + (i + 1)).tolist()]
            node_counts.append(f"\n    {row[i]}")
            yield ("," if i else "") + ",".join(
                f"\n    [\n      {i},\n      {j},\n      {c}\n    ]"
                for j, c in zip(cols, row[cols].tolist()))
    yield f'\n  ],\n  "node_counts": [{",".join(node_counts)}\n  ],\n  "runs": {len(s)}\n}}'


def sample_node_subgraph(n: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample `budget` distinct nodes of 0..n-1; returns their sorted ids."""
    if not 1 <= budget <= n:
        raise BudgetOutOfRange(f"budget must be in [1, {n}], got {budget}")
    return np.sort(rng.choice(n, size=budget, replace=False))


def aggregation_matrix(s: np.ndarray, nodes: np.ndarray | None = None) -> np.ndarray:
    """Normalization constants gamma_ij = C_i / C_ij of the membership S for
    every pair of `nodes` (default: the whole graph), in that order.

    Only a_hat * gamma is used, and a_hat is 0 off the support of A + I, so
    no graph is needed. Row-wise, hence generally asymmetric: gamma_ij
    divides by C_i, gamma_ji by C_j. A never-sampled pair clamps C_ij to 1,
    which keeps the operator's support. The diagonal is exactly 1 for every
    node sampled at least once (C_ii = C_i); exhaustive sampling (every run
    takes the whole graph) gives 1 everywhere, i.e. unit aggregation.
    """
    if len(s) < 1:
        raise EmptyStats("aggregation statistics need at least one sampler run")
    s = s if nodes is None else s[:, nodes]
    counts = s.T @ s   # C_ij, and C_i on the diagonal: exact integers
    return np.divide(np.diagonal(counts)[:, None], np.maximum(counts, 1.0), out=counts)


def presample(n: int, runs: int, budget: int, seed: int) -> np.ndarray:
    """The membership S of `runs` uniform samples of `budget` of the nodes
    0..n-1: the runs x n float 0/1 matrix whose entry (r, i) is 1 when run r
    sampled node i. Counts formed from it are exact in float64.

    Run r uses default_rng([seed, r]), so runs are independent and the result
    does not depend on execution order.
    """
    if runs < 1:
        raise EmptyStats(f"runs must be >= 1, got {runs}")
    s = np.zeros((runs, n))
    for r in range(runs):
        s[r, sample_node_subgraph(n, budget, np.random.default_rng([seed, r]))] = 1.0
    return s
