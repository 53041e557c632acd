import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angcn.errors import ShapeMismatch
from angcn.model import (
    ForwardTrace,
    ModelParams,
    forward,
    forward_logits,
    init_params,
    layer_forward,
    predict,
)
from angcn.popgraph import normalize_adjacency
from angcn.sampler import aggregation_matrix, presample, sample_node_subgraph

from graphs import blas_threads, naive_matmul, peak_bytes, random_adjacency, wide_random_graph


def random_graph(n, p, seed):
    return random_adjacency(n, p, seed, 0.3, 1.5)


def diffuse(op, h):
    """Weight-free propagation op @ h: the diffusion the forward pass traces
    for its one layer, under an identity projection."""
    f = h.shape[1]
    params = ModelParams(
        input_projection=np.eye(f), layers=[np.zeros((f, f))], output_head=np.eye(f),
        alpha=0.0, beta=0.5,
    )
    return forward(params, op, h).diffused[0]


def aggregate(op, h):
    """Propagation op @ h through the full forward pass: the first layer's
    diffusion under an identity projection, formed from the projected input
    the trace holds (at beta = 0 the trace keeps no diffusion); its ReLU by
    layer_forward is the forward's first activation."""
    f = h.shape[1]
    params = ModelParams(
        input_projection=np.eye(f), layers=[np.zeros((f, f))], output_head=np.eye(f),
        alpha=0.0, beta=0.0,
    )
    trace = forward(params, op, h)
    x0 = trace.projected_input
    s = op @ x0
    act = layer_forward(s, x0, 0.0, 0.0, None, None)
    assert np.array_equal(trace.activations[0], act)
    return s


def project(x, w):
    """x @ w as the forward pass computes it: projection w, no layers and an
    identity head, which leaves the product exact."""
    params = ModelParams(w, [], np.eye(w.shape[1]), alpha=0.0, beta=0.0)
    return forward(params, np.eye(len(x)), x).logits


class TestTracedDiffusion:
    def test_identity_operator(self):
        h = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(diffuse(np.eye(4), h), h)

    def test_two_node_averaging(self):
        a_hat = np.full((2, 2), 0.5)
        h = np.array([[2.0], [4.0]])
        assert np.array_equal(diffuse(a_hat, h), [[3.0], [3.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        h = rng.normal(size=(6, 3))
        np.testing.assert_allclose(diffuse(a, h), naive_matmul(a, h), atol=1e-13)


class TestOperatorPropagation:
    def test_a_hat_alone_is_plain_diffusion(self):
        g = random_graph(6, 0.5, seed=2)
        a_hat = normalize_adjacency(g)
        h = np.random.default_rng(3).normal(size=(6, 4))
        out = aggregate(a_hat, h)
        assert np.array_equal(out, a_hat @ h)

    def test_constant_gamma_scales(self):
        g = random_graph(5, 0.6, seed=4)
        a_hat = normalize_adjacency(g)
        gamma = np.full((5, 5), 2.0)
        h = np.random.default_rng(5).normal(size=(5, 3))
        np.testing.assert_allclose(aggregate(a_hat * gamma, h), 2.0 * (a_hat @ h), atol=1e-13)

    def test_gamma_scaled_operator_is_elementwise_then_product(self):
        g = random_graph(7, 0.4, seed=6)
        a_hat = normalize_adjacency(g)
        stats = presample(len(g), runs=40, budget=3, seed=7)
        gamma = aggregation_matrix(stats)
        h = np.random.default_rng(8).normal(size=(7, 2))
        expected = (a_hat * gamma) @ h
        assert np.array_equal(aggregate(a_hat * gamma, h), expected)


class TestInputProjection:
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
def test_projection_and_sampled_operator_agree_with_oracles(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3))
    c = rng.normal(size=(3, 5))
    np.testing.assert_allclose(project(a, c), naive_matmul(a, c), rtol=1e-12, atol=1e-12)
    # a_hat * gamma entry by entry: a_hat_ij * C_i / max(C_ij, 1), with the
    # counts tallied pair by pair over the draws presample makes
    g = wide_random_graph(4, 0.5, seed)
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


class TestLayerForward:
    def test_alpha_one_beta_zero_passes_input_through(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 2))
        x0 = rng.normal(size=(3, 2))
        op = rng.uniform(size=(3, 3))
        s = op @ h
        act = layer_forward(s, x0, 1.0, 0.0, None, 1.0 * x0)
        np.testing.assert_allclose(act, np.maximum(x0, 0.0), atol=1e-15)
        assert np.array_equal(s, op @ h)

    def test_alpha_beta_zero_is_plain_diffusion_bitwise(self):
        g = random_graph(5, 0.5, seed=1)
        a_hat = normalize_adjacency(g)
        op = a_hat
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 3))
        x0 = rng.normal(size=(5, 3))
        s = op @ h
        act = layer_forward(s, x0, 0.0, 0.0, None, None)
        assert np.array_equal(s, a_hat @ h)
        assert np.array_equal(act, np.maximum(a_hat @ h, 0.0))

    def test_four_term_hand_expansion(self):
        # W = 0 makes I + W = I, so with alpha=0.1, beta=0.3 the layer is
        # 0.9*Mh + 0.3*Mh + 0.1*x0 + 0.3*x0, assembled here term by term.
        m = np.array([[0.5, 0.5], [0.25, 0.75]])
        h = np.array([[1.0, -2.0], [3.0, 0.5]])
        x0 = np.array([[0.2, 0.4], [-0.6, 0.8]])
        w = np.zeros((2, 2))
        mh = m @ h
        expected = 0.9 * mh + 0.3 * mh + 0.1 * x0 + 0.3 * x0
        s = m @ h
        act = layer_forward(s, x0, 0.1, 0.3, np.eye(2) + w, 0.1 * x0)
        np.testing.assert_allclose(act, np.maximum(expected, 0.0), atol=1e-15)
        assert np.array_equal(s, mh)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.3), (0.1, 0.3)])
    def test_skipped_terms_leave_the_four_term_rule_bitwise(self, alpha, beta):
        # a zero-coefficient term is skipped, not added as zeros: same bits
        rng = np.random.default_rng(3)
        op = normalize_adjacency(random_graph(9, 0.4, seed=3))
        h, x0 = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        w = rng.normal(size=(4, 4))
        iw = np.eye(4) + w
        s = op @ h
        expected = (1.0 - alpha) * s + beta * (s @ iw) + alpha * x0 + beta * (x0 @ iw)
        act = layer_forward(s, x0, alpha, beta, iw if beta else None,
                            alpha * x0 if alpha else None)
        assert np.array_equal(act, np.maximum(expected, 0.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            layer_forward(np.ones((3, 2)), np.ones((3, 3)), 0.1, 0.3, 2.0 * np.eye(2),
                          np.full((3, 3), 0.1))


class TestForward:
    def test_zero_layers_is_projection_plus_head(self):
        rng = np.random.default_rng(0)
        params = init_params(4, 3, 2, n_layers=0, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(5, 4))
        trace = forward(params, np.eye(5), x)
        expected = (x @ params.input_projection) @ params.output_head
        np.testing.assert_allclose(trace.logits, expected, atol=1e-15)
        assert trace.diffused == []
        assert trace.activations == []

    def test_single_layer_matches_layer_forward(self):
        g = random_graph(4, 0.6, seed=3)
        op = normalize_adjacency(g)
        rng = np.random.default_rng(4)
        params = init_params(3, 2, 2, n_layers=1, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(4, 3))
        trace = forward(params, op, x)
        x0 = x @ params.input_projection
        s = op @ x0
        act = layer_forward(s, x0, 0.1, 0.3, np.eye(2) + params.layers[0], 0.1 * x0)
        assert np.array_equal(trace.diffused[0], s)
        assert np.array_equal(trace.activations[0], act)
        assert np.array_equal(trace.logits, act @ params.output_head)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_trace_keeps_each_identity_map_the_layers_used(self, beta):
        # backward reads I + W and the diffusion from the trace; at beta = 0
        # no term needs either
        rng = np.random.default_rng(6)
        params = init_params(3, 4, 2, n_layers=3, alpha=0.1, beta=beta, rng=rng)
        trace = forward(params, normalize_adjacency(random_graph(5, 0.6, seed=6)),
                        rng.normal(size=(5, 3)))
        want = [np.eye(4) + w for w in params.layers] if beta else []
        assert len(trace.identity_maps) == len(trace.diffused) == len(want)
        for got, iw in zip(trace.identity_maps, want):
            assert got.tobytes() == iw.tobytes()

    def test_plain_gcn_trace_holds_the_activations_alone(self):
        # n = 300, L = 20, H = 64 at alpha = beta = 0: the trace holds x0 and the
        # L activations, which is all backward reads there; with the L
        # diffusions as well a forward peaked at 41.1 N x H arrays
        n, layers, hidden = 300, 20, 64
        rng = np.random.default_rng(17)
        params = init_params(12, hidden, 2, layers, alpha=0.0, beta=0.0, rng=rng)
        op = normalize_adjacency(random_graph(n, 0.05, seed=17))
        x = rng.normal(size=(n, 12))
        peak, trace = peak_bytes(forward, params, op, x)
        assert peak <= 1.2 * layers * n * hidden * 8
        assert trace.diffused == [] and len(trace.activations) == layers

    def test_a_layer_diffusion_is_dropped_once_the_next_layer_has_read_it(self):
        # same shape: x0, the 19 kept activations and the running layer's s and
        # ReLU are 22 N x H arrays; keeping the last s through the next layer's
        # call peaked at 23.03, and an untraced forward at 5.00 (4.00 needed)
        n, layers, hidden = 300, 20, 64
        rng = np.random.default_rng(17)
        params = init_params(12, hidden, 2, layers, alpha=0.0, beta=0.0, rng=rng)
        op = normalize_adjacency(random_graph(n, 0.05, seed=17))
        x = rng.normal(size=(n, 12))
        peak, trace = peak_bytes(forward, params, op, x)
        assert peak <= 22.2 * n * hidden * 8
        peak, [logits] = peak_bytes(forward_logits, [params], op, x)
        assert peak <= 4.2 * n * hidden * 8
        assert logits.tobytes() == trace.logits.tobytes()

    def test_an_untraced_pass_writes_each_relu_over_its_product(self):
        # one weight set runs the loop that scores many: the ReLU output
        # overwrites the layer's product, so x0, the layer input and its
        # product are 3 N x H arrays; a new ReLU array would make a fourth
        n, layers, hidden = 300, 20, 64
        rng = np.random.default_rng(17)
        params = init_params(12, hidden, 2, layers, alpha=0.0, beta=0.0, rng=rng)
        op = normalize_adjacency(random_graph(n, 0.05, seed=17))
        x = rng.normal(size=(n, 12))
        peak, [logits] = peak_bytes(forward_logits, [params], op, x)
        assert peak <= 3.2 * n * hidden * 8
        assert logits.tobytes() == forward(params, op, x).logits.tobytes()

    def test_activations_nonnegative(self):
        g = random_graph(6, 0.5, seed=5)
        a_hat = normalize_adjacency(g)
        rng = np.random.default_rng(6)
        params = init_params(4, 5, 2, n_layers=3, alpha=0.2, beta=0.1, rng=rng)
        trace = forward(params, a_hat, rng.normal(size=(6, 4)))
        for act in trace.activations:
            assert np.all(act >= 0.0)
            assert act.shape == (6, 5)

    def test_permutation_equivariance(self):
        g = random_graph(7, 0.5, seed=7)
        a_hat = normalize_adjacency(g)
        stats = presample(len(g), runs=30, budget=4, seed=8)
        gamma = aggregation_matrix(stats)
        rng = np.random.default_rng(9)
        params = init_params(3, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        op = a_hat * gamma
        base = forward(params, op, x)
        permuted = forward(params, op[np.ix_(perm, perm)], x[perm])
        np.testing.assert_allclose(permuted.logits, base.logits[perm], rtol=1e-12, atol=1e-12)
        for got, want in zip(permuted.activations, base.activations):
            np.testing.assert_allclose(got, want[perm], rtol=1e-12, atol=1e-12)

    def test_shape_error_names_the_layer(self):
        rng = np.random.default_rng(12)
        params = init_params(3, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        params.layers[1] = np.ones((5, 5))   # wrong width mid-stack
        with pytest.raises(ShapeMismatch, match="layer 1"):
            forward(params, np.eye(4), rng.normal(size=(4, 3)))

    def test_operator_must_match_input_rows(self):
        rng = np.random.default_rng(13)
        params = init_params(3, 4, 2, n_layers=1, alpha=0.1, beta=0.3, rng=rng)
        with pytest.raises(ShapeMismatch, match="operator"):
            forward(params, np.eye(5), rng.normal(size=(4, 3)))

    def test_trace_diffusion_is_operator_times_previous_layer_bitwise(self):
        # backward reads diffused[l] instead of recomputing op @ h_(l-1)
        g = random_graph(8, 0.5, seed=14)
        a_hat = normalize_adjacency(g)
        stats = presample(len(g), runs=30, budget=4, seed=15)
        op = a_hat * aggregation_matrix(stats)
        rng = np.random.default_rng(16)
        params = init_params(3, 5, 2, n_layers=4, alpha=0.1, beta=0.3, rng=rng)
        trace = forward(params, op, rng.normal(size=(8, 3)))
        inputs = [trace.projected_input, *trace.activations[:-1]]
        assert len(trace.diffused) == len(inputs) == 4
        for s, h_in in zip(trace.diffused, inputs):
            assert np.array_equal(s, op @ h_in)

    def test_reduction_identity_on_random_fixtures(self):
        # alpha = beta = 0 with unit aggregation (op = a_hat) must reproduce
        # the plain diffusion bit for bit, whatever the weights are
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            g = random_graph(n, 0.5, seed=seed + 1000)
            a_hat = normalize_adjacency(g)
            op = a_hat
            h = rng.normal(size=(n, 4))
            x0 = rng.normal(size=(n, 4))
            s = op @ h
            act = layer_forward(s, x0, 0.0, 0.0, None, None)
            assert np.array_equal(s, a_hat @ h)
            assert np.array_equal(act, np.maximum(a_hat @ h, 0.0))


class TestBlockScoring:
    """forward_logits scores several weight sets in one pass: each layer
    multiplies op once by the N x kH matrix [h_1 ... h_k]."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_column_block_of_the_wide_product_is_its_own_product_bitwise(self, threads):
        """The premise of block scoring, at the widths it is used at: H a
        multiple of 16. The rule excludes widths such as H = 5, where at
        n = 40, k = 2 the blocks differ in the last bits (OpenBLAS 0.3.31),
        so sampled training scores those widths one epoch at a time."""
        with blas_threads(threads):
            for n in (8, 40, 300, 1000):
                rng = np.random.default_rng(n)
                a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3)
                a_hat = normalize_adjacency(np.triu(a, 1) + np.triu(a, 1).T)
                for width in (16, 64):
                    for k in (2, 5):
                        hs = [rng.normal(size=(n, width)) for _ in range(k)]
                        wide = a_hat @ np.hstack(hs)
                        for i, h in enumerate(hs):
                            block = wide[:, i * width:(i + 1) * width]
                            assert block.tobytes() == (a_hat @ h).tobytes(), (n, width, k, i)

    @pytest.mark.parametrize("width", [16, 64])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.3)])
    def test_each_set_scores_the_bits_of_its_own_pass(self, width, alpha, beta):
        n = 200
        rng = np.random.default_rng(width)
        op = normalize_adjacency(random_graph(n, 0.2, seed=width))
        x = rng.normal(size=(n, 7))
        sets = [init_params(7, width, 2, 3, alpha, beta, np.random.default_rng([width, i]))
                for i in range(3)]
        together = forward_logits(sets, op, x)
        assert len(together) == 3
        for got, p in zip(together, sets):
            assert got.tobytes() == forward_logits([p], op, x)[0].tobytes()
            assert got.tobytes() == forward(p, op, x).logits.tobytes()

    def test_sets_that_differ_in_shape_or_coefficients_are_refused(self):
        rng = np.random.default_rng(3)
        x, op = rng.normal(size=(6, 3)), np.eye(6)
        one = init_params(3, 4, 2, 2, 0.1, 0.3, rng)
        for other in (init_params(3, 4, 2, 3, 0.1, 0.3, rng),
                      init_params(3, 5, 2, 2, 0.1, 0.3, rng),
                      init_params(3, 4, 2, 2, 0.2, 0.3, rng)):
            with pytest.raises(ShapeMismatch, match="share alpha, beta and shapes"):
                forward_logits([one, other], op, x)

    def test_a_trace_records_one_set(self):
        rng = np.random.default_rng(4)
        sets = [init_params(3, 4, 2, 1, 0.1, 0.3, rng) for _ in range(2)]
        with pytest.raises(ValueError, match="one weight set, got 2"):
            forward_logits(sets, np.eye(5), rng.normal(size=(5, 3)), ForwardTrace(None, None))


class TestPredict:
    def test_symmetric_row(self):
        out = predict(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_log_ratio_row(self):
        out = predict(np.array([[np.log(1.0), np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_large_equal_logits_do_not_overflow(self):
        out = predict(np.array([[1000.0, 1000.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(scale=50.0, size=(40, 3))
        out = predict(logits)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)


class TestModelParams:
    def test_rejects_non_square_layer(self):
        with pytest.raises(ShapeMismatch):
            ModelParams(
                input_projection=np.ones((3, 4)),
                layers=[np.ones((4, 5))],
                output_head=np.ones((4, 2)),
                alpha=0.1,
                beta=0.3,
            )

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            ModelParams(
                input_projection=np.ones((3, 4)),
                layers=[],
                output_head=np.ones((4, 2)),
                alpha=1.5,
                beta=0.3,
            )

    def test_glorot_init_bounds(self):
        rng = np.random.default_rng(11)
        params = init_params(10, 8, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        bound = np.sqrt(6.0 / (10 + 8))
        assert np.all(np.abs(params.input_projection) <= bound)
        bound_w = np.sqrt(6.0 / 16)
        for w in params.layers:
            assert np.all(np.abs(w) <= bound_w)
