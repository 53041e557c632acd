import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angcn.data import SyntheticSpec, generate_synthetic
from angcn.errors import (
    BadAdjacency,
    DegenerateVector,
    NonPositiveSigma,
    OutOfRange,
    ShapeMismatch,
)
from angcn.popgraph import (
    QUALITATIVE,
    QUANTITATIVE,
    RIDGE_LAMBDA,
    PhenotypicMeasure,
    _correlation_distances,
    _median,
    build_adjacency,
    connectome_features,
    elimination_order,
    normalize_adjacency,
    rfe_ridge,
)

from graphs import adjacency, peak_bytes, wide_random_graph

# -- independent oracles ------------------------------------------------------


def pearson_oracle(x, y):
    """Pearson r from explicitly written covariance / stddev sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (sx * sy)


def adjacency_oracle(features, measures, sigma):
    """Brute-force double loop over the full edge-weight definition."""
    n = features.shape[0]
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rho = 1.0 - pearson_oracle(features[i], features[j])
            k = math.exp(-(rho**2) / (2.0 * sigma**2))
            total = 0.0
            for m in measures:
                if m.kind == QUALITATIVE:
                    total += 1.0 if m.values[i] == m.values[j] else 0.0
                else:
                    total += 1.0 if abs(m.values[i] - m.values[j]) < m.tau else 0.0
            a[i, j] = k * total
    return a


def random_inputs(seed, n=6, f=5):
    """Features, measures and sigma of a random n-subject graph."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, f))
    measures = [
        PhenotypicMeasure(
            name="cat",
            kind=QUALITATIVE,
            values=tuple(rng.choice(["a", "b", "c"], size=n)),
        ),
        PhenotypicMeasure(
            name="num",
            kind=QUANTITATIVE,
            values=tuple(float(v) for v in rng.uniform(0, 10, size=n)),
            tau=float(rng.uniform(0.5, 4.0)),
        ),
    ]
    sigma = float(rng.uniform(0.3, 1.5))
    return features, measures, sigma


# -- correlation distance -----------------------------------------------------

AGREE = [PhenotypicMeasure(name="g", kind=QUALITATIVE, values=("a", "a"))]


def two_subject_graph(x, y, sigma=1.0):
    """The graph of two subjects that agree on their one phenotypic measure, so
    the edge weight between them is the kernel value alone."""
    return build_adjacency(np.array([x, y], dtype=float), AGREE, sigma)[0]


def correlation_distance(x, y):
    return _correlation_distances(np.array([x, y], dtype=float))[0, 1]


def kernel_weight(x, y, sigma):
    """The one edge weight of a two-subject graph: K(rho(x, y), sigma)."""
    a = two_subject_graph(x, y, sigma)
    assert a[0, 0] == a[1, 1] == 0.0 and a[0, 1] == a[1, 0]
    return a[0, 1]


class TestCorrelationDistance:
    def test_perfect_positive(self):
        assert correlation_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_negative(self):
        assert correlation_distance([1, 2, 3], [-1, -2, -3]) == pytest.approx(2.0, abs=1e-15)

    def test_against_pearson_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert correlation_distance(x, y) == pytest.approx(1.0 - pearson_oracle(x, y), abs=1e-14)

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVector, match="subject 0"):
            correlation_distance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_self_distance_zero_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert correlation_distance(x, x) == pytest.approx(0.0, abs=1e-12)
        assert correlation_distance(x, y) == pytest.approx(correlation_distance(y, x), abs=1e-14)
        assert -1e-12 <= correlation_distance(x, y) <= 2.0 + 1e-12


class TestKernelSimilarity:
    # pairs with exactly known distances: identical rows (rho = 0),
    # uncorrelated rows (rho = 1) and anti-correlated rows (rho = 2)
    UNCORRELATED = ([1.0, 0.0, -1.0], [1.0, -2.0, 1.0])

    def test_zero_distance(self):
        assert kernel_weight([1, 2, 3], [1, 2, 3], sigma=1.7) == 1.0

    def test_unit_exponent(self):
        sigma = math.sqrt(2.0)   # rho = 2 = sigma * sqrt(2)
        assert kernel_weight([1, 2, 3], [-1, -2, -3], sigma) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )
        assert kernel_weight([1, 2, 3], [-1, -2, -3], sigma) == pytest.approx(0.36788, abs=1e-5)

    def test_direct_substitution(self):
        assert correlation_distance(*self.UNCORRELATED) == 1.0
        assert kernel_weight(*self.UNCORRELATED, sigma=0.5) == pytest.approx(
            math.exp(-2.0), abs=1e-12
        )
        assert kernel_weight(*self.UNCORRELATED, sigma=0.5) == pytest.approx(0.13534, abs=1e-5)

    def test_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            two_subject_graph(*self.UNCORRELATED, sigma=0.0)

    def test_nan_sigma_rejected(self):
        # a NaN width would make every weight NaN and so drop every edge
        with pytest.raises(NonPositiveSigma, match="got nan"):
            two_subject_graph(*self.UNCORRELATED, sigma=float("nan"))


class TestMedianSigma:
    # the median heuristic comes from a one-pivot partition of the pairs i < j,
    # not np.median (whose float path imports numpy.ma and partitions at two
    # or three pivots); it must give np.median's bits

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])   # 1, 3, 6, 10, 15 and 21 pairs
    def test_bits_match_np_median(self, n):
        measures = [PhenotypicMeasure("g", QUALITATIVE, ("a",) * n)]
        for seed in range(20):
            features = np.random.default_rng([n, seed]).normal(size=(n, 5))
            rho = _correlation_distances(features)
            upper = np.concatenate([rho[i, i + 1:] for i in range(n - 1)])
            _, sigma = build_adjacency(features, measures)
            assert np.float64(sigma).tobytes() == np.median(upper).tobytes()

    def test_bits_match_np_median_on_a_paper_scale_bundle(self):
        from angcn.data import SyntheticSpec, generate_synthetic
        bundle = generate_synthetic(SyntheticSpec(n_subjects=300, seed=0))
        _, sigma = build_adjacency(bundle.features, bundle.phenotypes)
        upper = _correlation_distances(bundle.features)[np.triu_indices(300, k=1)]
        assert np.float64(sigma).tobytes() == np.median(upper).tobytes()   # 44,850 pairs: even
        _, sigma = build_adjacency(bundle.features[1:], [
            PhenotypicMeasure(m.name, m.kind, m.values[1:], m.tau) for m in bundle.phenotypes])
        upper = _correlation_distances(bundle.features[1:])[np.triu_indices(299, k=1)]
        assert np.float64(sigma).tobytes() == np.median(upper).tobytes()   # 44,551 pairs: odd

    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_one_nan_gives_nan(self, size):
        for at in range(size):
            values = np.arange(size, dtype=float)
            values[at] = np.nan
            assert math.isnan(_median(values))

    def test_nan_distances_raise(self):
        features = np.random.default_rng(3).normal(size=(6, 5))
        features[2, 1] = np.nan
        measures = [PhenotypicMeasure("g", QUALITATIVE, ("a",) * 6)]
        with pytest.raises(NonPositiveSigma, match="got nan"):
            build_adjacency(features, measures)


class TestPhenotypicAgreement:
    def test_qualitative_equal(self):
        m = PhenotypicMeasure(name="gender", kind=QUALITATIVE, values=("F", "F", "M"))
        d = m.agreement()
        assert d[0, 1] == 1.0
        assert d[0, 2] == 0.0
        assert np.array_equal(d, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_quantitative_threshold(self):
        m = PhenotypicMeasure(name="age", kind=QUANTITATIVE, values=(30.0, 31.0, 33.0), tau=2.0)
        d = m.agreement()
        assert d[0, 1] == 1.0   # |30-31| = 1 < 2
        assert d[0, 2] == 0.0   # |30-33| = 3 >= 2
        assert d[1, 2] == 0.0   # |31-33| = 2, not < 2
        assert np.array_equal(d, d.T)

    def test_quantitative_requires_positive_tau(self):
        with pytest.raises(ValueError):
            PhenotypicMeasure(name="age", kind=QUANTITATIVE, values=(1.0,), tau=0.0)


# -- adjacency construction ---------------------------------------------------


class TestBuildAdjacency:
    def test_identical_features_matching_phenotypes(self):
        # rho = 0 so K = 1; same gender and close ages give a weight of 2
        features = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        measures = [
            PhenotypicMeasure(name="gender", kind=QUALITATIVE, values=("F", "F")),
            PhenotypicMeasure(name="age", kind=QUANTITATIVE, values=(30.0, 31.0), tau=2.0),
        ]
        g, _ = build_adjacency(features, measures, sigma=1.0)
        assert g[0, 1] == pytest.approx(2.0, abs=1e-15)

    def test_zero_phenotypic_sum_kills_edge(self):
        features = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        measures = [
            PhenotypicMeasure(name="gender", kind=QUALITATIVE, values=("F", "M")),
            PhenotypicMeasure(name="age", kind=QUANTITATIVE, values=(30.0, 40.0), tau=2.0),
        ]
        g, _ = build_adjacency(features, measures, sigma=1.0)
        assert not g.any()

    def test_four_subject_fixture_matches_oracle(self):
        features, measures, sigma = random_inputs(seed=11, n=4)
        got, _ = build_adjacency(features, measures, sigma)
        want = adjacency_oracle(features, measures, sigma)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_twenty_random_specs_match_oracle(self):
        for seed in range(20):
            features, measures, sigma = random_inputs(seed=seed)
            got, _ = build_adjacency(features, measures, sigma)
            want = adjacency_oracle(features, measures, sigma)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [63, 64, 65, 131])
    def test_row_blocks_equal_the_whole_matrix_formula(self, n):
        # bit for bit, at sizes that end in a partial block of rows
        features, measures, sigma = random_inputs(seed=n, n=n)
        rho = _correlation_distances(features)
        count = sum(m.agreement().astype(int) for m in measures)
        upper = np.triu(np.exp(rho * rho / (-2.0 * sigma * sigma)) * count, k=1)
        a, _ = build_adjacency(features, measures, sigma)
        assert a.tobytes() == (upper + upper.T).tobytes()

    def test_symmetric_zero_diagonal_bounded(self):
        features, measures, sigma = random_inputs(seed=5, n=8)
        a, _ = build_adjacency(features, measures, sigma)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.min() >= 0.0
        assert a.max() <= len(measures)

    def test_degenerate_subject_named(self):
        features = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        measures = [PhenotypicMeasure(name="g", kind=QUALITATIVE, values=("a", "a"))]
        with pytest.raises(DegenerateVector, match="subject 0"):
            build_adjacency(features, measures, sigma=1.0)

    def test_sigma_none_is_median_of_distances(self):
        # sigma=None resolves to the median heuristic over all pairs i < j
        rng = np.random.default_rng(3)
        features = rng.normal(size=(5, 6))
        rhos = [
            1.0 - pearson_oracle(features[i], features[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        measures = [PhenotypicMeasure(name="g", kind=QUALITATIVE, values=("a",) * 5)]
        _, sigma = build_adjacency(features, measures)
        assert sigma == pytest.approx(float(np.median(rhos)), abs=1e-15)

    @pytest.mark.parametrize("sigma", [None, 0.5])
    def test_same_inputs_give_the_same_graph_and_stay_as_they_were(self, sigma):
        # the call keeps no state: a second build from the same inputs is the
        # same graph at the same sigma, and the features are only read
        features, measures, _ = random_inputs(seed=7, n=70)
        before = features.copy()
        a, s = build_adjacency(features, measures, sigma)
        b, t = build_adjacency(features, measures, sigma)
        assert a is not b and a.tobytes() == b.tobytes()
        assert np.float64(s).tobytes() == np.float64(t).tobytes()
        assert features.tobytes() == before.tobytes()


# -- normalized operator ------------------------------------------------------


def a_tilde_of(a_hat):
    """A + I recovered from a_hat = D^-1/2 (A + I) D^-1/2: a unit diagonal
    fixes D, since a_hat_ii = 1 / d_i."""
    d = 1.0 / np.diag(a_hat)
    return a_hat * np.sqrt(np.outer(d, d))


class TestUnitSelfLoops:
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
            g = wide_random_graph(7, 0.4, seed=seed)
            out = normalize_adjacency(g)
            assert np.array_equal(out, out.T)

    def test_eigenvalues_in_unit_interval(self):
        for seed in range(8):
            g = wide_random_graph(5, 0.6, seed=seed)
            out = normalize_adjacency(g)
            eig = np.linalg.eigvalsh(out)
            assert eig.min() >= -1.0 - 1e-12
            assert eig.max() <= 1.0 + 1e-12

    def test_all_entries_finite(self):
        g = wide_random_graph(6, 0.5, seed=3)
        out = normalize_adjacency(g)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("n", [1, 63, 65, 131])
    def test_row_blocks_equal_the_whole_matrix_formula(self, n):
        # bit for bit, at sizes that end in a partial block of rows
        g = wide_random_graph(n, 0.3, seed=n)
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

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, weight):
        # the file refuses a non-finite cell as it parses it; a matrix is refused here
        with pytest.raises(BadAdjacency, match="^adjacency weights must be finite and >= 0, "
                                               rf"got min .*{weight}"):
            normalize_adjacency(adjacency(3, [(0, 1, 1.0), (1, 2, weight)]))


# a_hat is exactly symmetric, so a_hat.T equals a_hat bit for bit
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=40))
def test_normalized_operator_exactly_symmetric_on_random_weighted_graphs(seed, n):
    out = normalize_adjacency(wide_random_graph(n, 0.3, seed))
    assert np.array_equal(out, out.T)


def test_normalized_population_graph_exactly_symmetric():
    bundle = generate_synthetic(SyntheticSpec(n_subjects=120, n_roi=8, seed=3))
    g = build_adjacency(bundle.features, bundle.phenotypes)[0]
    assert np.count_nonzero(g) > 0
    out = normalize_adjacency(g)
    assert np.array_equal(out, out.T)


# -- connectome features ------------------------------------------------------


class TestConnectomeFeatures:
    def test_zero_correlation(self):
        corr = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(connectome_features(corr), [0.0])

    def test_half_correlation(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = connectome_features(corr)
        assert out[0] == pytest.approx(math.atanh(0.5), abs=1e-15)
        assert out[0] == pytest.approx(0.54931, abs=1e-5)

    def test_row_wise_order(self):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.1
        corr[0, 2] = corr[2, 0] = 0.2
        corr[1, 2] = corr[2, 1] = 0.3
        out = connectome_features(corr)
        np.testing.assert_allclose(
            out, [math.atanh(0.1), math.atanh(0.2), math.atanh(0.3)], atol=1e-15
        )

    def test_out_of_range(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(OutOfRange):
            connectome_features(corr)

    def test_round_trip_is_identity(self):
        # filling the upper triangle row by row and mirroring it is the
        # inverse of the row-wise vectorization, up to the z-transform
        rng = np.random.default_rng(9)
        n = 6
        iu = np.triu_indices(n, 1)
        z = rng.normal(size=n * (n - 1) // 2)
        corr = np.eye(n)
        corr[iu] = np.tanh(z)
        corr = corr + np.triu(corr, 1).T
        vec = connectome_features(corr)
        np.testing.assert_allclose(vec, z, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(vec, np.arctanh(corr[iu]), atol=0)


# -- recursive feature elimination --------------------------------------------


def single_column_ridge_weight(col, y, lam=1.0):
    """Closed-form one-feature ridge fit: w = <x,y> / (<x,x> + lam)."""
    return float(np.dot(col, y) / (np.dot(col, col) + lam))


class TestRfeRidge:
    def test_no_elimination_when_target_equals_f(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        y = np.sign(rng.normal(size=20))
        keep = rfe_ridge(x, y, target_dim=6)
        assert np.array_equal(keep, np.arange(6))

    def test_label_copy_column_survives(self):
        rng = np.random.default_rng(1)
        n, f = 40, 8
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        x = rng.normal(size=(n, f))
        x[:, 3] = y
        # oracle: in exhaustive single-column ridge fits the label copy
        # carries by far the largest coefficient magnitude
        weights = [abs(single_column_ridge_weight(x[:, c], y)) for c in range(f)]
        assert int(np.argmax(weights)) == 3
        keep = rfe_ridge(x, y, target_dim=1)  # one column per round at f = 8
        assert keep.tolist() == [3]

    def test_step_clipped_to_surplus(self):
        # 10% of 30 columns is 3, but only 2 may go: one round drops the two
        # smallest |w| of the ridge fit on all 30
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 30))
        y = np.sign(rng.normal(size=40))
        w = np.linalg.solve(x.T @ x + RIDGE_LAMBDA * np.eye(30), x.T @ y)
        dropped = elimination_order(w, list(range(30)))[:2]
        keep = rfe_ridge(x, y, target_dim=28)
        assert keep.tolist() == sorted(set(range(30)) - set(dropped))

    def test_tie_break_drops_lower_column_index_first(self):
        assert elimination_order([0.5, 0.5, 0.7], [3, 1, 9]) == [1, 3, 9]
        assert elimination_order([0.2, -0.2, 0.2], [4, 0, 2]) == [0, 2, 4]

    def test_selection_is_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 12))
        y = np.sign(rng.normal(size=25))
        a = rfe_ridge(x, y, target_dim=4)
        b = rfe_ridge(x, y, target_dim=4)
        assert np.array_equal(a, b)

    def test_target_dim_validation(self):
        with pytest.raises(ValueError):
            rfe_ridge(np.ones((5, 3)), np.ones(5), target_dim=0)
