import hashlib
import json

import numpy as np
import pytest

from angcn.errors import BudgetOutOfRange, EmptyStats
from angcn.popgraph import normalize_adjacency
from angcn.sampler import aggregation_matrix, json_chunks, presample, sample_node_subgraph

from graphs import adjacency, edge_list, peak_bytes, random_adjacency


def path_graph(n):
    return adjacency(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def edge_pairs(g):
    """The graph's (i, j) endpoints as Python int pairs, in row-major order."""
    return [(i, j) for i, j, _ in edge_list(g)]


def draws(n, runs, budget, seed):
    """The node samples `presample` draws: run r from default_rng([seed, r])."""
    return [sample_node_subgraph(n, budget, np.random.default_rng([seed, r]))
            for r in range(runs)]


def pair_tally(n, samples):
    """Independent per-pair appearance counts: entry (i, j) counts the samples
    holding both i and j, so the diagonal counts those holding i."""
    counts = np.zeros((n, n), dtype=np.int64)
    for nodes in samples:
        for i in nodes.tolist():
            for j in nodes.tolist():
                counts[i, j] += 1
    return counts


def pair_counts(s):
    """C_ij off the diagonal and C_i on it: S^T S for the runs x n membership S."""
    return (s.T @ s).astype(np.int64)


def node_counts(stats):
    return np.diagonal(pair_counts(stats))


def induced_edges(g, budget, seed):
    """The single run of `presample` at `seed`: its node sample, and the edges
    of g inside it read off the appearance counts."""
    (nodes,) = draws(len(g), 1, budget, seed)
    counts = pair_counts(presample(len(g), runs=1, budget=budget, seed=seed))
    return nodes, {(i, j) for i, j in edge_pairs(g) if counts[i, j] == 1}


def random_graph(n, p, seed):
    return random_adjacency(n, p, seed, 0.5, 2.0)


class TestSampleNodeSubgraph:
    def test_exhaustive_budget(self):
        g = path_graph(5)
        s, edges = induced_edges(g, budget=5, seed=0)
        assert s.tolist() == [0, 1, 2, 3, 4]
        assert edges == set(edge_pairs(g))

    def test_budget_one_has_no_edges(self):
        s, edges = induced_edges(path_graph(4), budget=1, seed=1)
        assert len(s) == 1
        assert edges == set()

    def test_fixed_seed_is_deterministic(self):
        g = path_graph(5)
        a = sample_node_subgraph(len(g), budget=3, rng=np.random.default_rng(77))
        b = sample_node_subgraph(len(g), budget=3, rng=np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_budget_out_of_range(self):
        with pytest.raises(BudgetOutOfRange):
            sample_node_subgraph(3, budget=0, rng=np.random.default_rng(0))
        with pytest.raises(BudgetOutOfRange):
            sample_node_subgraph(3, budget=4, rng=np.random.default_rng(0))

    def test_induced_edges_match_parent_graph(self):
        g = random_graph(8, 0.5, seed=2)
        for seed in range(10):
            s, edges = induced_edges(g, budget=4, seed=seed)
            chosen = set(s.tolist())
            expected = {(i, j) for i, j in edge_pairs(g) if i in chosen and j in chosen}
            assert edges == expected


class TestAccumulateCounts:
    """The appearance counts `presample` tallies over its runs."""

    def test_exhaustive_runs_count_everything(self):
        stats = presample(4, runs=7, budget=4, seed=0)
        assert len(stats) == 7
        assert np.all(node_counts(stats) == 7)
        assert np.all(pair_counts(stats) == 7)

    def test_hand_tally_fixture(self):
        # path 0-1-2-3; at seed 4 the three runs take these hand-listed samples
        samples = draws(4, 3, 3, 4)
        assert [nodes.tolist() for nodes in samples] == [[1, 2, 3], [0, 2, 3], [0, 1, 3]]
        stats = presample(4, runs=3, budget=3, seed=4)
        assert node_counts(stats).tolist() == [2, 2, 2, 3]
        assert pair_counts(stats)[0, 1] == 1
        assert pair_counts(stats)[1, 2] == 1
        assert pair_counts(stats)[2, 3] == 2
        assert np.array_equal(pair_counts(stats), pair_tally(4, samples))
        # the diagonal (self-loop) entries are the node counts
        for v in range(4):
            assert pair_counts(stats)[v, v] == node_counts(stats)[v]

    def test_counts_monotone_under_appending(self):
        # run r does not depend on the number of runs, so 20 runs extend 10
        prev = presample(6, runs=10, budget=3, seed=4)
        more = presample(6, runs=20, budget=3, seed=4)
        assert np.all(node_counts(more) >= node_counts(prev))
        assert np.all(pair_counts(more) >= pair_counts(prev))
        assert np.array_equal(pair_counts(more) - pair_counts(prev),
                              pair_tally(6, draws(6, 20, 3, 4)[10:]))


class TestAggregationMatrix:
    def test_exhaustive_sampling_collapses_to_ones(self):
        g = path_graph(4)
        gamma = aggregation_matrix(presample(len(g), runs=5, budget=4, seed=0))
        assert np.array_equal(gamma, np.ones((4, 4)))
        a_hat = normalize_adjacency(g)
        assert np.array_equal(a_hat * gamma, a_hat)

    def test_ratio_substitution(self):
        # 5 runs take both nodes, 5 only node 0 and 3 only node 1: C_0 = 10,
        # C_1 = 8, C_01 = 5
        stats = np.array([[1.0, 1.0]] * 5 + [[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 3)
        gamma = aggregation_matrix(stats)
        assert gamma[0, 1] == 2.0          # 10 / 5
        assert gamma[1, 0] == pytest.approx(8.0 / 5.0)
        assert gamma[0, 0] == 1.0
        assert gamma[1, 1] == 1.0

    def test_node_set_gamma_is_the_whole_graph_block(self):
        # a minibatch's gamma from its own columns of S equals, bit for bit,
        # its block of the whole-graph gamma
        stats = presample(30, runs=40, budget=12, seed=3)
        whole = aggregation_matrix(stats)
        rng = np.random.default_rng(0)
        for budget in (1, 5, 12, 30):
            nodes = sample_node_subgraph(30, budget, rng)
            assert np.array_equal(aggregation_matrix(stats, nodes), whole[np.ix_(nodes, nodes)])

    def test_presample_keeps_no_n_by_n_array(self):
        # the runs x n membership is all presample builds: no N x N pair counts
        n = 2000
        peak, stats = peak_bytes(presample, n, 20, 50, 0)
        assert peak < n * n * 8
        assert stats.shape == (20, n)

    def test_empty_stats(self):
        with pytest.raises(EmptyStats, match="runs must be >= 1, got 0"):
            presample(3, runs=0, budget=2, seed=0)
        with pytest.raises(EmptyStats):
            aggregation_matrix(np.zeros((0, 3)))

    def test_unit_diagonal_and_support(self):
        g = random_graph(10, 0.4, seed=6)
        stats = presample(len(g), runs=60, budget=5, seed=1)
        gamma = aggregation_matrix(stats)
        assert np.all(np.diag(gamma) == 1.0)
        off = edge_pairs(g)
        a_hat = normalize_adjacency(g)  # the operator keeps the support of A + I
        assert np.array_equal(a_hat * gamma > 0, a_hat > 0)
        for i, j in off:
            if pair_counts(stats)[i, j] >= 1:
                assert gamma[i, j] >= 1.0
                assert gamma[j, i] >= 1.0

    def test_never_sampled_edge_clamps_denominator(self):
        # C_0 = 4, C_1 = C_01 = 2, and no run takes node 2
        stats = np.array([[1.0, 1.0, 0.0]] * 2 + [[1.0, 0.0, 0.0]] * 2)
        gamma = aggregation_matrix(stats)
        assert gamma[1, 2] == 2.0          # C_1 / max(0, 1)
        assert gamma[2, 1] == 0.0          # C_2 = 0
        assert gamma[2, 2] == 0.0          # never-sampled node


class TestLoopReference:
    # the per-edge loops the array code replaced; the arithmetic is the same,
    # so results must match exactly

    def test_counts_match_per_edge_tally(self):
        g = random_graph(15, 0.4, seed=9)
        stats = presample(len(g), runs=60, budget=6, seed=4)
        tally = np.zeros(len(g), dtype=int)
        edge_counts = {(i, j): 0 for i, j in edge_pairs(g)}
        for nodes in draws(len(g), 60, 6, 4):
            chosen = set(nodes.tolist())
            for v in chosen:
                tally[v] += 1
            for i, j in edge_pairs(g):
                if i in chosen and j in chosen:
                    edge_counts[(i, j)] += 1
        edge_counts.update({(v, v): int(tally[v]) for v in range(len(g))})
        assert np.array_equal(node_counts(stats), tally)
        assert {key: pair_counts(stats)[key] for key in edge_counts} == edge_counts

    def test_gamma_matches_per_edge_loop(self):
        # the training operator a_hat * gamma against gamma scattered per edge
        g = random_graph(15, 0.4, seed=10)
        stats = presample(len(g), runs=30, budget=4, seed=5)
        c = node_counts(stats).astype(float)
        want = np.zeros((len(g), len(g)))
        for i, j in edge_pairs(g):
            cij = max(pair_counts(stats)[i, j], 1)
            want[i, j] = c[i] / cij
            want[j, i] = c[j] / cij
        for v in range(len(g)):
            want[v, v] = c[v] / max(c[v], 1.0)
        a_hat = normalize_adjacency(g)
        assert np.array_equal(a_hat * aggregation_matrix(stats), a_hat * want)


class TestUnbiasedness:
    def test_normalized_subgraph_aggregation_matches_full_graph(self):
        # Monte-Carlo oracle: average the gamma-weighted, subgraph-masked
        # aggregation over the same seeded runs that defined the counts,
        # per-node normalized by the node's appearance count.
        g = random_graph(20, 0.3, seed=123)
        a_hat = normalize_adjacency(g)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(20, 6))
        stats = presample(len(g), runs=5000, budget=10, seed=99)
        gamma = aggregation_matrix(stats)
        op = a_hat * gamma
        total = np.zeros_like(h)
        for nodes in draws(len(g), 5000, 10, 99):
            mask = np.zeros((20, 20))
            mask[np.ix_(nodes, nodes)] = 1.0
            total += (op * mask) @ h
        est = total / np.maximum(node_counts(stats)[:, None], 1)
        ref = a_hat @ h
        rel = np.linalg.norm(est - ref) / np.linalg.norm(ref)
        assert rel < 0.02

    def test_split_runs_still_approximately_unbiased(self):
        # harsher variant: gamma from one batch of runs, averaging over an
        # independent batch; only statistically unbiased, so the bound is loose
        g = random_graph(20, 0.3, seed=123)
        a_hat = normalize_adjacency(g)
        h = np.random.default_rng(5).normal(size=(20, 6))
        op = a_hat * aggregation_matrix(presample(len(g), runs=4000, budget=10, seed=1))
        stats_b = presample(len(g), runs=4000, budget=10, seed=2)
        total = np.zeros_like(h)
        for nodes in draws(len(g), 4000, 10, 2):
            mask = np.zeros((20, 20))
            mask[np.ix_(nodes, nodes)] = 1.0
            total += (op * mask) @ h
        est = total / np.maximum(node_counts(stats_b)[:, None], 1)
        ref = a_hat @ h
        assert np.linalg.norm(est - ref) / np.linalg.norm(ref) < 0.10


class TestDeterminismAndExport:
    def test_same_seed_same_stats(self):
        g = random_graph(9, 0.4, seed=0)
        a = presample(len(g), runs=30, budget=4, seed=21)
        b = presample(len(g), runs=30, budget=4, seed=21)
        assert np.array_equal(a, b)

    def test_stats_json_bytes_are_pinned(self):
        # the stats.json bytes `sample-stats` writes; the digest was recorded
        # with the original per-edge loop implementation of the counts
        rng = np.random.default_rng(31)
        edges = [
            (i, j, float(rng.uniform(0.5, 2.0)))
            for i in range(12)
            for j in range(i + 1, 12)
            if rng.uniform() < 0.4
        ]
        g = adjacency(12, tuple(edges))
        stats = presample(len(g), runs=40, budget=5, seed=2)
        digest = hashlib.sha256("".join(json_chunks(stats, g)).encode()).hexdigest()
        assert digest == "1170aa4302e59f471efcc6622573807201bfd426adc2b9c5bc5371a78eaa069f"

    def test_json_round_trip(self):
        g = random_graph(7, 0.5, seed=8)
        stats = presample(len(g), runs=25, budget=3, seed=3)
        back = json.loads("".join(json_chunks(stats, g)))
        assert back["runs"] == len(stats)
        assert back["node_counts"] == node_counts(stats).tolist()
        keys = sorted(edge_pairs(g) + [(v, v) for v in range(len(g))])
        assert back["edge_counts"] == [[i, j, pair_counts(stats)[i, j]] for i, j in keys]

    @pytest.mark.parametrize("n, p, budget", [(60, 0.3, 20), (60, 0.0, 20), (70, 0.5, 70),
                                              (1, 0.0, 1)],
                             ids=["n60", "edgeless", "two-blocks-exhaustive", "one-node"])
    def test_chunks_are_the_whole_payload_dump(self, n, p, budget):
        # stats.json was json.dumps of a payload read off the whole S^T S; the
        # chunks, formed a block of rows at a time, must be the same bytes
        g = random_adjacency(n, p, seed=n, low=0.5, high=2.0)
        stats = presample(n, runs=30, budget=budget, seed=6)
        i, j = np.nonzero(np.triu(g != 0, k=1) | np.eye(n, dtype=bool))
        counts = pair_counts(stats)
        payload = {"runs": len(stats), "node_counts": np.diagonal(counts).tolist(),
                   "edge_counts": np.stack([i, j, counts[i, j]], axis=1).tolist()}
        chunks = list(json_chunks(stats, g))
        assert len(chunks) == n + 2   # one per matrix row between the opening and closing
        assert "".join(chunks) == json.dumps(payload, indent=2, sort_keys=True)


class TestMinibatches:
    # training uses each sample as one minibatch, in sampler order

    def test_single_exhaustive_sample_is_full_batch(self):
        g = path_graph(6)
        s = sample_node_subgraph(len(g), budget=6, rng=np.random.default_rng(0))
        assert s.tolist() == [0, 1, 2, 3, 4, 5]

    def test_budget_n_every_batch_is_full(self):
        g = path_graph(4)
        for r in range(3):
            s = sample_node_subgraph(len(g), budget=4, rng=np.random.default_rng(r))
            assert s.tolist() == [0, 1, 2, 3]

    def test_order_preserving_bijection(self):
        # a batch lists distinct nodes in ascending order, so local row p is
        # global node batch[p] and the labeled rows keep their global order
        g = random_graph(8, 0.4, seed=1)
        train_mask = np.zeros(8, dtype=bool)
        train_mask[[1, 2, 5, 6]] = True
        for r in range(3):
            batch = sample_node_subgraph(len(g), budget=3, rng=np.random.default_rng(r))
            assert len(batch) == 3
            assert np.all(np.diff(batch) > 0)
            local = np.flatnonzero(train_mask[batch])
            assert batch[local].tolist() == sorted(set(batch.tolist()) & {1, 2, 5, 6})
