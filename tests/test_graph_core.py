import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angcn.data import SyntheticSpec, generate_synthetic, load_adjacency
from angcn.errors import BadAdjacency, ParseError, ShapeMismatch
from angcn.model import ModelParams, forward
from angcn.popgraph import build_adjacency, normalize_adjacency
from angcn.sampler import aggregation_matrix, presample, sample_node_subgraph
from angcn.training import TrainConfig, cross_validate

from graphs import adjacency, adjacency_file, edge_list, peak_bytes, random_adjacency


def naive_matmul(a, b):
    """Independent triple-loop product used as the oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def project(x, w):
    """x @ w as the forward pass computes it: projection w, no layers and an
    identity head, which leaves the product exact."""
    params = ModelParams(w, [], np.eye(w.shape[1]), alpha=0.0, beta=0.0)
    return forward(params, np.eye(len(x)), x).logits


def random_graph(n, p, seed):
    return random_adjacency(n, p, seed, 0.1, 2.0)


class TestGraph:
    """A graph's invariants: the adjacency file is the one source of edges, so
    load_adjacency checks them, and normalize_adjacency refuses a matrix that
    breaks them."""

    def test_adjacency_symmetric_zero_diagonal(self, tmp_path):
        want = random_graph(6, 0.5, seed=0)
        a = load_adjacency(adjacency_file(tmp_path, edge_list(want)), n=6)
        assert np.array_equal(a, want)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)

    def test_rejects_duplicate_edge(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_adjacency(adjacency_file(tmp_path, [(0, 1, 1.0), (0, 1, 2.0)]), n=3)

    def test_rejects_self_edge_and_bad_order(self, tmp_path):
        with pytest.raises(ParseError):
            load_adjacency(adjacency_file(tmp_path, [(1, 1, 1.0)]), n=3)
        with pytest.raises(ParseError):
            load_adjacency(adjacency_file(tmp_path, [(2, 1, 1.0)]), n=3)

    def test_first_bad_edge_is_reported(self, tmp_path):
        for rows, message in (
            ([(0, 1, 1.0), (1, 2, -0.5), (0, 1, 2.0)], r"line 3: edge \(1, 2\) has negative "
                                                       r"weight -0.5$"),
            ([(0, 1, 1.0), (0, 1, 2.0), (3, 1, 1.0)], r"line 3: duplicate edge \(0, 1\)$"),
            ([(0, 1, 1.0), (3, 1, 1.0), (0, 1, -1.0)], r"line 3: edge \(3, 1\) is not "
                                                       r"0 <= i < j < 4$"),
        ):
            with pytest.raises(ParseError, match=message):
                load_adjacency(adjacency_file(tmp_path, rows), n=4)

    def test_rejects_negative_weight(self, tmp_path):
        with pytest.raises(ParseError, match="negative"):
            load_adjacency(adjacency_file(tmp_path, [(0, 1, -0.5)]), n=2)
        with pytest.raises(BadAdjacency, match=">= 0, got min -0.5"):
            normalize_adjacency(adjacency(2, [(0, 1, -0.5)]))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, weight):
        # the file refuses a non-finite cell as it parses it; a matrix is refused here
        with pytest.raises(BadAdjacency, match="^adjacency weights must be finite and >= 0, "
                                               rf"got min .*{weight}"):
            normalize_adjacency(adjacency(3, [(0, 1, 1.0), (1, 2, weight)]))


def a_tilde_of(a_hat):
    """A + I recovered from a_hat = D^-1/2 (A + I) D^-1/2: a unit diagonal
    fixes D, since a_hat_ii = 1 / d_i."""
    d = 1.0 / np.diag(a_hat)
    return a_hat * np.sqrt(np.outer(d, d))


class TestAddSelfLoops:
    """normalize_adjacency normalizes A + I: a unit self-loop on every node."""

    def test_single_node_no_edges(self):
        assert np.array_equal(normalize_adjacency(adjacency(1)), [[1.0]])

    def test_two_nodes_unit_edge(self):
        g = adjacency(2, ((0, 1, 1.0),))
        assert np.array_equal(a_tilde_of(normalize_adjacency(g)), [[1, 1], [1, 1]])

    def test_three_node_path(self):
        g = adjacency(3, ((0, 1, 1.0), (1, 2, 1.0)))
        expected = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        np.testing.assert_allclose(a_tilde_of(normalize_adjacency(g)), expected,
                                   rtol=1e-15, atol=0)


class TestNormalizeAdjacency:
    def test_isolated_node_with_self_loop(self):
        out = normalize_adjacency(adjacency(3, ((0, 1, 2.0),)))
        assert out[2].tolist() == [0.0, 0.0, 1.0]

    def test_two_node_clique(self):
        out = normalize_adjacency(adjacency(2, ((0, 1, 1.0),)))
        assert np.array_equal(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_three_node_path_hand_value(self):
        # degrees with self-loops are (2, 3, 2), so the 0-1 entry is 1/sqrt(6)
        out = normalize_adjacency(adjacency(3, ((0, 1, 1.0), (1, 2, 1.0))))
        assert out[0][1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-15)
        assert out[0][1] == pytest.approx(0.40825, abs=1e-5)
        assert out[0][0] == pytest.approx(0.5)
        assert out[1][1] == pytest.approx(1.0 / 3.0)
        assert out[0][2] == 0.0

    def test_zero_weight_edge_leaves_every_degree_one(self):
        # weights are >= 0, so every degree of A + I is >= 1: no zero division
        out = normalize_adjacency(adjacency(2, ((0, 1, 0.0),)))
        assert np.array_equal(out, np.eye(2))

    @pytest.mark.parametrize("a, error, message", [
        (np.zeros((2, 3)), ShapeMismatch, r"must be square, got shape \(2, 3\)$"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), BadAdjacency, "matrix is not symmetric$"),
        (adjacency(3, [(0, 2, np.nan)]), BadAdjacency,
         "must be finite and >= 0, got min nan, max nan$"),
        (adjacency(3, [(0, 2, -1.0)]), BadAdjacency,
         "must be finite and >= 0, got min -1.0, max 0.0$"),
        (np.eye(2), BadAdjacency, "diagonal must be 0"),
    ], ids=["non-square", "asymmetric", "nan", "negative", "nonzero-diagonal"])
    def test_refuses_a_matrix_that_is_no_graph(self, a, error, message):
        # what a graph's adjacency matrix is: square, symmetric, finite, >= 0, zero diagonal
        with pytest.raises(error, match=message):
            normalize_adjacency(a)

    def test_output_exactly_symmetric(self):
        for seed in range(5):
            g = random_graph(7, 0.4, seed=seed)
            out = normalize_adjacency(g)
            assert np.array_equal(out, out.T)

    def test_eigenvalues_in_unit_interval(self):
        for seed in range(8):
            g = random_graph(5, 0.6, seed=seed)
            out = normalize_adjacency(g)
            eig = np.linalg.eigvalsh(out)
            assert eig.min() >= -1.0 - 1e-12
            assert eig.max() <= 1.0 + 1e-12

    def test_all_entries_finite(self):
        g = random_graph(6, 0.5, seed=3)
        out = normalize_adjacency(g)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("n", [1, 63, 65, 131])
    def test_row_blocks_equal_the_whole_matrix_formula(self, n):
        # bit for bit, at sizes that end in a partial block of rows
        g = random_graph(n, 0.3, seed=n)
        a_tilde = g + np.eye(n)
        d = a_tilde.sum(axis=1)
        assert np.array_equal(normalize_adjacency(g), a_tilde / np.sqrt(np.outer(d, d)))

    def test_keeps_no_second_n_by_n_array(self):
        # the divisors sqrt(d_i d_j) exist for one block of rows at a time
        n = 2000
        g = adjacency(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        peak, out = peak_bytes(normalize_adjacency, g)
        assert peak < 1.25 * n * n * 8
        assert out.shape == (n, n)

    def test_forms_a_hat_in_its_float64_argument(self):
        # the adjacency matrix becomes A_hat: from graph to operator, one N x N array
        n = 2000

        def chain_operator():
            g = adjacency(n, [(i, i + 1, 1.0) for i in range(n - 1)])
            return g, normalize_adjacency(g)

        peak, (g, out) = peak_bytes(chain_operator)
        assert out is g
        assert peak <= 1.2 * n * n * 8
        d = np.r_[2.0, np.full(n - 2, 3.0), 2.0]
        assert out[0, 0] == 1.0 / d[0] and out[0, 1] == 1.0 / np.sqrt(d[0] * d[1])

    def test_other_input_is_converted_and_a_refused_matrix_left_as_it_was(self):
        ints = np.array([[0, 2], [2, 0]])
        out = normalize_adjacency(ints)
        assert out.dtype == np.float64 and ints.tolist() == [[0, 2], [2, 0]]
        assert np.array_equal(out, normalize_adjacency(ints.astype(float)))
        lopsided = adjacency(3, [(0, 1, 1.0)])
        lopsided[2, 0] = 0.5
        before = lopsided.copy()
        with pytest.raises(BadAdjacency, match="not symmetric"):
            normalize_adjacency(lopsided)
        assert np.array_equal(lopsided, before)


def stats_of(membership):
    """The membership S of hand-listed runs: row r marks the nodes run r took."""
    return np.array(membership, dtype=float)


class TestHadamard:
    """The training operator a_hat * gamma, the Hadamard product of a_hat and
    the aggregation matrix."""

    def test_ones_is_identity(self):
        # every run takes every node: gamma is 1 everywhere
        a_hat = normalize_adjacency(random_graph(5, 0.5, seed=1))
        assert np.array_equal(a_hat * aggregation_matrix(stats_of(np.ones((10, 5)))), a_hat)

    def test_zeros_annihilate(self):
        # no run takes any node: C_i = 0 makes gamma, and the operator, 0
        a_hat = normalize_adjacency(random_graph(5, 0.5, seed=1))
        gamma = aggregation_matrix(stats_of(np.zeros((10, 5))))
        assert np.array_equal(a_hat * gamma, np.zeros((5, 5)))

    def test_direct_substitution(self):
        # a_hat is 0.5 everywhere; C_0 = 4, C_1 = C_01 = 2 over 10 runs, so
        # gamma = [[4/4, 4/2], [2/2, 2/2]]
        a_hat = normalize_adjacency(adjacency(2, ((0, 1, 1.0),)))
        gamma = aggregation_matrix(stats_of([[1, 1]] * 2 + [[1, 0]] * 2 + [[0, 0]] * 6))
        assert np.array_equal(a_hat * gamma, [[0.5, 1.0], [0.5, 0.5]])

    def test_shape_mismatch(self):
        # minibatch gammas read stats of other nodes silently, so cross_validate refuses them
        a_hat = normalize_adjacency(random_graph(20, 0.3, seed=2))
        labels = np.arange(20) % 2
        stats = presample(21, runs=5, budget=10, seed=0)
        with pytest.raises(ShapeMismatch, match="stats cover 21 nodes, the graph 20"):
            cross_validate(TrainConfig(folds=2, batch_budget=10), a_hat, stats,
                           np.ones((20, 3)), labels)


class TestMatmul:
    """Products of the forward pass, checked through `forward` itself."""

    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(project(np.eye(3), m), m)

    def test_row_times_column(self):
        out = project(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, [[11.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        np.testing.assert_allclose(project(a, b), naive_matmul(a, b), rtol=1e-13, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="input width 3 != projection rows 2"):
            project(np.ones((2, 3)), np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hadamard_matmul_agree_with_oracles(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3))
    c = rng.normal(size=(3, 5))
    np.testing.assert_allclose(project(a, c), naive_matmul(a, c), rtol=1e-12, atol=1e-12)
    # a_hat * gamma entry by entry: a_hat_ij * C_i / max(C_ij, 1), with the
    # counts tallied pair by pair over the draws presample makes
    g = random_graph(4, 0.5, seed)
    budget = int(rng.integers(1, 5))
    counts = np.zeros((4, 4), dtype=int)
    for r in range(6):
        nodes = sample_node_subgraph(4, budget, np.random.default_rng([seed, r])).tolist()
        for i in nodes:
            for j in nodes:
                counts[i, j] += 1
    stats = presample(4, runs=6, budget=budget, seed=seed)
    assert np.array_equal(stats.T @ stats, counts)
    a_hat = normalize_adjacency(g)
    op = a_hat * aggregation_matrix(stats)
    for (i, j), value in np.ndenumerate(op):
        assert value == a_hat[i, j] * (float(counts[i, i]) / max(counts[i, j], 1))


# a_hat is exactly symmetric, so a_hat.T equals a_hat bit for bit
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=40))
def test_normalized_operator_exactly_symmetric_on_random_weighted_graphs(seed, n):
    out = normalize_adjacency(random_graph(n, 0.3, seed))
    assert np.array_equal(out, out.T)


def test_normalized_population_graph_exactly_symmetric():
    bundle = generate_synthetic(SyntheticSpec(n_subjects=120, n_roi=8, seed=3))
    g = build_adjacency(bundle.features, bundle.phenotypes)[0]
    assert np.count_nonzero(g) > 0
    out = normalize_adjacency(g)
    assert np.array_equal(out, out.T)


def test_support_mask_marks_edges_and_diagonal():
    # the operator's support is that of A + I, which exhaustive sampling keeps
    g = adjacency(3, ((0, 2, 0.7),))
    expected = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
    a_hat = normalize_adjacency(g)
    op = a_hat * aggregation_matrix(presample(3, runs=4, budget=3, seed=0))
    assert np.array_equal(op, a_hat)
    assert np.array_equal(op > 0, expected)
