"""Pre-training subgraph sampling and aggregator-normalization statistics.

Uniform node samples drawn before training yield appearance counts C_i and
C_ij; their ratio gives the per-edge normalization constants that debias
subgraph-restricted aggregation. Counts for the synthetic self-loop entry
(i, i) always equal C_i, so the self term is never rescaled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetOutOfRange, EmptyStats, ForeignSample
from .graph_core import Graph


@dataclass
class AggregationStats:
    """Appearance counts over sampler runs.

    node_counts[i] = number of samples containing node i; edge_counts maps
    each (i, j) edge of the parent graph, plus one (i, i) entry per node, to
    the number of samples whose induced subgraph contains it.
    """

    runs: int
    node_counts: np.ndarray
    edge_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "runs": self.runs,
            "node_counts": [int(c) for c in self.node_counts],
            "edge_counts": [
                [i, j, int(c)] for (i, j), c in sorted(self.edge_counts.items())
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AggregationStats":
        payload = json.loads(text)
        return cls(
            runs=payload["runs"],
            node_counts=np.array(payload["node_counts"], dtype=int),
            edge_counts={(i, j): c for i, j, c in payload["edge_counts"]},
        )


def sample_node_subgraph(g: Graph, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample `budget` distinct nodes; returns their sorted ids."""
    if not 1 <= budget <= g.n:
        raise BudgetOutOfRange(f"budget must be in [1, {g.n}], got {budget}")
    return np.sort(rng.choice(g.n, size=budget, replace=False))


def accumulate_counts(g: Graph, samples: list[np.ndarray]) -> AggregationStats:
    """Tally node and edge appearance counts over a list of node samples.

    With S the runs x n 0/1 matrix of sample membership, C_i = sum_r S_ri
    and C_ij = (S^T S)_ij.
    """
    membership = np.zeros((len(samples), g.n))
    for r, nodes in enumerate(samples):
        nodes = np.asarray(nodes, dtype=int)
        foreign = nodes[(nodes < 0) | (nodes >= g.n)]
        if foreign.size:
            raise ForeignSample(f"sample references node {foreign[0]}, graph has n={g.n}")
        membership[r, nodes] = 1.0
    pair_counts = membership.T @ membership   # exact integers; diagonal = C_i
    i = np.concatenate([g.src, np.arange(g.n)])
    j = np.concatenate([g.dst, np.arange(g.n)])
    counts = dict(zip(zip(i.tolist(), j.tolist()), pair_counts[i, j].astype(int).tolist()))
    return AggregationStats(
        runs=len(samples), node_counts=membership.sum(axis=0).astype(int), edge_counts=counts
    )


def aggregation_matrix(stats: AggregationStats, g: Graph) -> np.ndarray:
    """Per-edge normalization constants gamma_ij = C_i / C_ij on the support of A + I.

    Row-wise by construction, hence generally asymmetric: gamma_ij divides by
    C_i while gamma_ji divides by C_j. Never-sampled edges clamp the
    denominator to 1 so the support of the diffusion operator is preserved.
    Diagonal entries are exactly 1 for every node that was sampled at least
    once (C_ii = C_i).
    """
    if stats.runs < 1:
        raise EmptyStats("aggregation statistics need at least one sampler run")
    c = stats.node_counts.astype(float)
    pair_counts = np.zeros((g.n, g.n))
    keys = np.array(list(stats.edge_counts), dtype=int).reshape(-1, 2)
    pair_counts[keys[:, 0], keys[:, 1]] = list(stats.edge_counts.values())
    c_edge = np.maximum(pair_counts[g.src, g.dst], 1.0)
    gamma = np.diag(c / np.maximum(c, 1.0))
    gamma[g.src, g.dst] = c[g.src] / c_edge
    gamma[g.dst, g.src] = c[g.dst] / c_edge
    return gamma


def ones_gamma(g: Graph) -> np.ndarray:
    """The exhaustive-sampling aggregation matrix: 1 on the support of A + I.

    This is what the counts collapse to when every run samples the whole
    graph, and it is the correct constant whenever aggregation is never
    restricted to a subgraph (full-batch training and full-graph inference).
    """
    gamma = np.eye(g.n)
    gamma[g.src, g.dst] = 1.0
    gamma[g.dst, g.src] = 1.0
    return gamma


def presample(g: Graph, runs: int, budget: int, seed: int) -> tuple[AggregationStats, list[np.ndarray]]:
    """Run the sampler `runs` times with per-run derived seeds and tally counts.

    Run r uses default_rng([seed, r]), so runs are independent and the result
    does not depend on execution order.
    """
    samples = [
        sample_node_subgraph(g, budget, np.random.default_rng([seed, r]))
        for r in range(runs)
    ]
    return accumulate_counts(g, samples), samples
