import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from angcn.cli import gradcheck_fixture
from angcn.data import SyntheticSpec, generate_synthetic
from angcn.errors import (
    ClassTooSmall,
    EmptyLabeledSet,
    NonFiniteLoss,
    ShapeMismatch,
    TraceMismatch,
)
from angcn.graph_core import normalize_adjacency
from angcn.model import ModelParams, forward, forward_logits, init_params, layer_forward, predict
from angcn.popgraph import PopulationGraphSpec, build_adjacency
from angcn.sampler import aggregation_matrix, presample
import angcn.training as training
from angcn.training import (
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy,
    cross_validate,
    finite_difference_check,
    stratified_kfold,
    train,
)

from graphs import adjacency, peak_bytes


class TestCrossEntropy:
    def test_perfect_predictions(self):
        # exp(-800) underflows to 0: each row's softmax is exactly one-hot
        logits = np.array([[0.0, -800.0], [-800.0, 0.0]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(logits, onehot, [0, 1]) == 0.0

    def test_uniform_row_is_log_two(self):
        logits = np.array([[0.3, 0.3]])
        onehot = np.array([[1.0, 0.0]])
        assert cross_entropy(logits, onehot, [0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_labeled_rows(self):
        logits = np.log([[0.9, 0.1], [0.2, 0.8]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = -(math.log(0.9) + math.log(0.8))
        assert cross_entropy(logits, onehot, [0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_sum_not_mean(self):
        logits = np.tile([[1.5, 1.5]], (4, 1))
        onehot = np.tile([[1.0, 0.0]], (4, 1))
        assert cross_entropy(logits, onehot, [0, 1, 2, 3]) == pytest.approx(
            4.0 * math.log(2.0), abs=1e-12
        )
        assert cross_entropy(logits, onehot, [0, 1, 2, 3], reduction="mean") == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_underflowed_rows_read_the_logits(self):
        # the true class trails by 800 and 2000: its softmax probability is 0,
        # and its term is logsumexp(z) - z_y, not a floor of -log(1e-300)
        logits = np.array([[0.0, 800.0], [2000.0, 0.0], [0.0, 0.5]])
        onehot = np.eye(2)[[0, 1, 0]]
        kept = math.log1p(math.exp(0.5))  # the row above the floor, as before
        assert cross_entropy(logits, onehot, [0, 1, 2]) == pytest.approx(
            800.0 + 2000.0 + kept, rel=1e-15)
        assert cross_entropy(logits, onehot, [2]) == -float(
            np.log(predict(logits[2:])[0, 0]))

    def test_bits_match_the_probability_form_where_nothing_underflows(self):
        rng = np.random.default_rng(4)
        for n in (1, 7, 16, 33, 300):
            logits = rng.normal(scale=20.0, size=(n, 2))
            onehot = np.eye(2)[rng.integers(0, 2, size=n)]
            labeled = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
            y_hat = predict(logits)[labeled]
            assert (y_hat >= 1e-300).all()
            want = -float(np.sum(onehot[labeled] * np.log(np.maximum(y_hat, 1e-300))))
            assert cross_entropy(logits, onehot, labeled) == want

    def test_empty_labeled_set(self):
        with pytest.raises(EmptyLabeledSet):
            cross_entropy(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), [])


def four_term_backward(trace, params, op, onehot, labeled):
    """Reference backward that computes every term, zero coefficients included.
    Each layer's diffusion comes from layer_forward on the layer's input, as
    the trace keeps none at beta = 0."""
    y_hat = predict(trace.logits)
    d_logits = np.zeros_like(y_hat)
    d_logits[labeled] = y_hat[labeled] - onehot[labeled]
    x0 = trace.projected_input
    inputs = [x0, *trace.activations[:-1]]
    d_head = trace.activations[-1].T @ d_logits
    d_h = d_logits @ params.output_head.T
    d_layers, d_x0 = [None] * len(params.layers), np.zeros_like(x0)
    alpha, beta = params.alpha, params.beta
    for ell in range(len(params.layers) - 1, -1, -1):
        g = d_h * (trace.activations[ell] > 0).astype(float)
        iw = np.eye(params.layers[ell].shape[0]) + params.layers[ell]
        s, _ = layer_forward(inputs[ell], x0, op, params.layers[ell], alpha, beta)
        d_layers[ell] = beta * ((s + x0).T @ g)
        g_iw = g @ iw.T
        d_x0 += alpha * g + beta * g_iw
        d_h = op.T @ ((1.0 - alpha) * g + beta * g_iw)
    d_x0 += d_h
    return [trace.raw_input.T @ d_x0, *d_layers, d_head]


class TestBackward:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.3), (0.1, 0.3)])
    def test_skipped_terms_leave_the_four_term_gradients_bitwise(self, alpha, beta, symmetric):
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=5)
        params = replace(params, alpha=alpha, beta=beta)
        if symmetric:  # like a_hat; a_hat * gamma is asymmetric
            op = (op + op.T) / 2.0
        assert np.array_equal(op, op.T) == symmetric
        trace = forward(params, op, x_raw)
        got = backward(trace, params, op, onehot, labeled)
        want = four_term_backward(trace, params, op, onehot, labeled)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.3)])
    def test_a_hat_untransposed_gives_the_transposed_bits(self, alpha, beta):
        # full-batch training passes symmetric=True: normalize_adjacency makes
        # a_hat exactly symmetric, so a_hat @ d_s sums what a_hat.T @ d_s does
        bundle = generate_synthetic(SyntheticSpec(n_subjects=300, seed=23))
        a_hat = normalize_adjacency(build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)))
        assert np.array_equal(a_hat, a_hat.T)
        rng = np.random.default_rng(23)
        params = init_params(bundle.features.shape[1], 64, 2, 10, alpha, beta, rng)
        onehot, labeled = np.eye(2)[bundle.labels], np.arange(0, 300, 2)
        trace = forward(params, a_hat, bundle.features)
        got = backward(trace, params, a_hat, onehot, labeled, symmetric=True)
        want = backward(trace, params, a_hat, onehot, labeled)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("reduction", ["avg", "Mean", "", None])
    def test_unknown_reduction_is_refused_by_name(self, reduction):
        # any value but "sum" or "mean" was read as a sum
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=3)
        trace = forward(params, op, x_raw)
        named = re.escape(repr(reduction))
        with pytest.raises(ValueError, match=named):
            cross_entropy(trace.logits, onehot, labeled, reduction)
        with pytest.raises(ValueError, match=named):
            backward(trace, params, op, onehot, labeled, reduction)

    def test_zero_learning_signal(self):
        # logits separated by 800 underflow the softmax to an exact one-hot,
        # so (prediction - label) vanishes identically
        params = ModelParams(
            input_projection=np.eye(2),
            layers=[],
            output_head=np.array([[400.0, -400.0], [-400.0, 400.0]]),
            alpha=0.1,
            beta=0.3,
        )
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        op = np.eye(3)
        trace = forward(params, op, x)
        assert np.array_equal(predict(trace.logits)[[0, 1]], onehot[[0, 1]])
        grads = backward(trace, params, op, onehot, [0, 1])
        assert np.all(grads[0] == 0.0)
        assert np.all(grads[-1] == 0.0)

    def test_zero_layer_head_gradient_is_linear_softmax_case(self):
        rng = np.random.default_rng(0)
        params = init_params(4, 3, 2, n_layers=0, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, size=6)
        onehot = np.zeros((6, 2))
        onehot[np.arange(6), labels] = 1.0
        labeled = np.array([0, 2, 5])
        op = np.eye(6)
        trace = forward(params, op, x)
        grads = backward(trace, params, op, onehot, labeled)
        # hand derivation: d(head) = H0^T (Yhat - Y) restricted to labeled rows
        x0 = x @ params.input_projection
        residual = predict(trace.logits) - onehot
        masked = np.zeros_like(residual)
        masked[labeled] = residual[labeled]
        np.testing.assert_allclose(grads[-1], x0.T @ masked, atol=1e-14)

    def test_matches_finite_differences_relu(self):
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=7)
        err = finite_difference_check(params, op, x_raw, onehot, labeled, eps=1e-5)
        assert err < 1e-4

    def test_matches_finite_differences_tightly(self):
        # no pre-activation of this fixture lies within eps of ReLU's kink,
        # for the full model and for the plain GCN (alpha = beta = 0) alike
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=7)
        for p in (params, replace(params, alpha=0.0, beta=0.0)):
            assert finite_difference_check(p, op, x_raw, onehot, labeled, eps=1e-5) < 1e-6

    @staticmethod
    def paper_shape():
        """n = 300 seed-0 bundle, whole-graph a_hat * gamma from presample(300,
        runs=200, budget=100), L = 10, H = 64 init_params weights, 200 labeled
        nodes; returns (params, op, features, onehot, labeled, rng)."""
        bundle = generate_synthetic(SyntheticSpec(n_subjects=300, seed=0))
        a_hat = normalize_adjacency(build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)))
        op = a_hat * aggregation_matrix(presample(300, runs=200, budget=100, seed=0))
        rng = np.random.default_rng(3)
        params = init_params(bundle.features.shape[1], 64, 2, 10, alpha=0.1, beta=0.3,
                             rng=rng)
        labeled = np.sort(rng.choice(300, size=200, replace=False))
        return params, op, bundle.features, np.eye(2)[bundle.labels], labeled, rng

    @staticmethod
    def directional_errors(params, op, x, onehot, labeled, reduction, rng, directions):
        """Relative gap between <grad L, v> from backward and a central
        difference (step 1e-5) of the loss along each of `directions` random
        unit directions v."""
        def loss(p):
            return cross_entropy(forward(p, op, x).logits, onehot, labeled, reduction)

        grads = backward(forward(params, op, x), params, op, onehot, labeled, reduction)
        step, errors = 1e-5, []
        for _ in range(directions):
            v = [rng.normal(size=m.shape) for m in params.matrices()]
            norm = math.sqrt(sum(float((d * d).sum()) for d in v))
            analytic = sum(float((g * d).sum()) for g, d in zip(grads, v)) / norm
            hi, lo = params.copy(), params.copy()
            for m_hi, m_lo, d in zip(hi.matrices(), lo.matrices(), v):
                m_hi += (step / norm) * d
                m_lo -= (step / norm) * d
            numeric = (loss(hi) - loss(lo)) / (2.0 * step)
            errors.append(abs(numeric - analytic) / abs(analytic))
        return errors

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_directional_derivatives_at_paper_shape(self, reduction):
        # n = 300, L = 10, H = 64 on the sampled operator a_hat * gamma: <grad L, v>
        # from backward against a central difference of two forwards along unit
        # directions v. With no biases and a positively homogeneous ReLU the
        # logits scale with the inputs; they are scaled to a largest logit of 2,
        # where no softmax probability is near 0.
        # Measured: relative errors up to 2.4e-9 at step 1e-5, and ReLU kinks
        # crossed at step 1e-4 give up to 5.6e-4, so the bound is 1e-6.
        params, op, x, onehot, labeled, rng = self.paper_shape()
        x = x * (2.0 / np.abs(forward(params, op, x).logits).max())
        errors = self.directional_errors(params, op, x, onehot, labeled, reduction, rng, 3)
        assert max(errors) < 1e-6

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_loss_agrees_with_backward_where_the_softmax_underflows(self, reduction):
        # the same shape at the features' own scale: the logits reach 7.95e5 and
        # half the labeled rows' true-class probabilities are 0. A loss floored
        # at 1e-300 is flat there (relative error 1.0 in every direction); read
        # off the logits it matches backward (measured: at most 8e-10)
        params, op, x, onehot, labeled, rng = self.paper_shape()
        assert np.abs(forward(params, op, x).logits).max() > 7e5
        errors = self.directional_errors(params, op, x, onehot, labeled, reduction, rng, 5)
        assert max(errors) < 1e-6

    def test_mean_reduction_scales_gradients(self):
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=3)
        trace = forward(params, op, x_raw)
        g_sum = backward(trace, params, op, onehot, labeled)
        g_mean = backward(trace, params, op, onehot, labeled, reduction="mean")
        np.testing.assert_allclose(g_mean[-1], g_sum[-1] / len(labeled), atol=1e-15)

    def test_trace_mismatch(self):
        rng = np.random.default_rng(1)
        params = init_params(3, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        other = init_params(3, 4, 2, n_layers=3, alpha=0.1, beta=0.3, rng=rng)
        x = rng.normal(size=(5, 3))
        trace = forward(params, np.eye(5), x)
        with pytest.raises(TraceMismatch):
            backward(trace, other, np.eye(5), np.zeros((5, 2)), [0])

    def test_trace_without_identity_maps_is_refused(self):
        # a beta = 0 forward keeps no I + W, so backward at beta > 0 cannot run on it
        rng = np.random.default_rng(1)
        params = init_params(3, 4, 2, n_layers=2, alpha=0.1, beta=0.0, rng=rng)
        trace = forward(params, np.eye(5), rng.normal(size=(5, 3)))
        with pytest.raises(TraceMismatch, match="identity maps"):
            backward(trace, replace(params, beta=0.3), np.eye(5), np.zeros((5, 2)), [0])

    def test_eps_zero_rejected(self):
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=3)
        with pytest.raises(ValueError):
            finite_difference_check(params, op, x_raw, onehot, labeled, eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-5])
    def test_eps_must_be_finite_and_positive(self, eps):
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=3)
        with pytest.raises(ValueError, match="eps must be a finite number > 0"):
            finite_difference_check(params, op, x_raw, onehot, labeled, eps=eps)

    @pytest.mark.parametrize("matrix", [0, 2, -1])  # projection, a layer, the head
    def test_nan_weight_fails_the_check(self, matrix):
        # a NaN entry error must not be dropped by the running maximum
        params, op, x_raw, onehot, labeled = gradcheck_fixture(seed=7)
        params.matrices()[matrix][0, 0] = np.nan
        err = finite_difference_check(params, op, x_raw, onehot, labeled, eps=1e-5)
        assert not err < 1e-4
        assert math.isnan(err)


def hand_adam(thetas, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar Adam recurrence written straight from the update rule."""
    theta = thetas
    m = v = 0.0
    for t, g in enumerate(grads_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def one_param_model(value):
    return ModelParams(
        input_projection=np.array([[value]]),
        layers=[],
        output_head=np.array([[0.0]]),
        alpha=0.0,
        beta=0.0,
    )


def out_of_place_adam(mats, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The update rule as fresh arrays per step, in the in-place rule's arithmetic order."""
    mats = [w.copy() for w in mats]
    ms = [np.zeros_like(w) for w in mats]
    vs = [np.zeros_like(w) for w in mats]
    for t, gmats in enumerate(grads_seq, start=1):
        ms = [beta1 * m + (1.0 - beta1) * g for m, g in zip(ms, gmats)]
        vs = [beta2 * v + (1.0 - beta2) * g * g for v, g in zip(vs, gmats)]
        mats = [
            w - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
            for w, m, v in zip(mats, ms, vs)
        ]
    return mats, ms, vs


def random_grads(params, rng):
    return [rng.normal(size=m.shape) for m in params.matrices()]


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(2)
        params = init_params(3, 3, 2, n_layers=1, alpha=0.1, beta=0.3, rng=rng)
        grads = [
            rng.normal(size=(3, 3)) + 2.0,   # bounded away from 0
            rng.normal(size=(3, 3)) - 2.0,
            np.full((3, 2), 0.5),
        ]
        before = params.copy()
        state = AdamState.for_params(params)
        assert adam_step(params, grads, state, lr=0.05) is None
        np.testing.assert_allclose(
            params.input_projection - before.input_projection,
            -0.05 * np.sign(grads[0]),
            atol=1e-8,
        )
        np.testing.assert_allclose(
            params.output_head - before.output_head,
            -0.05 * np.sign(grads[-1]),
            atol=1e-8,
        )
        assert state.t == 1

    def test_zero_gradient_leaves_params(self):
        params = one_param_model(1.5)
        before = params.copy()
        grads = [np.zeros((1, 1)), np.zeros((1, 1))]
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1)
        assert np.array_equal(params.input_projection, before.input_projection)
        assert state.t == 1

    def test_two_steps_match_hand_recurrence(self):
        g1, g2 = 0.7, -1.3
        params = one_param_model(0.25)
        state = AdamState.for_params(params)
        for g in (g1, g2):
            grads = [np.array([[g]]), np.zeros((1, 1))]
            adam_step(params, grads, state, lr=0.01)
        assert params.input_projection[0, 0] == hand_adam(0.25, [g1, g2], lr=0.01)
        assert state.t == 2

    def test_three_steps_bitwise_equal_out_of_place_rule(self):
        rng = np.random.default_rng(8)
        params = init_params(5, 4, 2, n_layers=3, alpha=0.1, beta=0.3, rng=rng)
        grads_seq = [random_grads(params, rng) for _ in range(3)]
        want, want_m, want_v = out_of_place_adam(
            params.matrices(), grads_seq, lr=0.02
        )
        state = AdamState.for_params(params)
        for grads in grads_seq:
            adam_step(params, grads, state, lr=0.02)
        assert state.t == 3
        for got, expected in zip(params.matrices(), want):
            assert np.array_equal(got, expected)
        for got, expected in zip(state.first_moment + state.second_moment, want_m + want_v):
            assert np.array_equal(got, expected)

    def test_wrong_shape_raises_before_mutating(self):
        rng = np.random.default_rng(9)
        params = init_params(5, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        state = AdamState.for_params(params)
        adam_step(params, random_grads(params, rng), state, lr=0.02)  # nonzero moments
        before = params.copy()
        moments = [m.copy() for m in state.first_moment + state.second_moment]
        bad = random_grads(params, rng)
        bad[2] = np.ones((4, 3))  # layer 1
        with pytest.raises(ShapeMismatch):
            adam_step(params, bad, state, lr=0.02)
        assert state.t == 1
        for got, expected in zip(params.matrices(), before.matrices()):
            assert np.array_equal(got, expected)
        for got, expected in zip(state.first_moment + state.second_moment, moments):
            assert np.array_equal(got, expected)


class TestStratifiedKfold:
    def test_balanced_hundred(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = stratified_kfold(labels, k=10, seed=0)
        assert sorted(np.concatenate(folds).tolist()) == list(range(100))
        for f in folds:
            assert np.sum(labels[f] == 0) == 5
            assert np.sum(labels[f] == 1) == 5

    def test_twelve_eight_split(self):
        labels = np.array([0] * 12 + [1] * 8)
        folds = stratified_kfold(labels, k=4, seed=1)
        for f in folds:
            assert f.size == 5
            assert np.sum(labels[f] == 0) == 3
            assert np.sum(labels[f] == 1) == 2

    def test_seed_changes_assignment_not_counts(self):
        labels = np.array([0] * 30 + [1] * 20)
        a = stratified_kfold(labels, k=5, seed=3)
        b = stratified_kfold(labels, k=5, seed=3)
        c = stratified_kfold(labels, k=5, seed=4)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))
        for f in c:
            assert np.sum(labels[f] == 0) == 6
            assert np.sum(labels[f] == 1) == 4

    def test_class_too_small(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ClassTooSmall):
            stratified_kfold(labels, k=4, seed=0)


class TestEarlyStopper:
    def test_stops_after_patience_without_improvement(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.1)
        assert stopper.update(3, 1.05)
        assert stopper.best_epoch == 1

    def test_equal_value_is_not_improvement(self):
        stopper = EarlyStopper(patience=1)
        assert not stopper.update(1, 0.5)
        assert stopper.update(2, 0.5)


def two_node_setup():
    g = adjacency(2, ((0, 1, 1.0),))
    features = np.array([[1.0, 0.5], [1.0, 0.5]])
    labels = np.array([0, 1])
    return g, features, labels


class TestTrain:
    def test_patience_one_stops_at_epoch_two_returns_epoch_one(self):
        # identical inputs: training node 0 toward class 0 pushes the
        # validation node's class-1 loss strictly up every epoch
        g, features, labels = two_node_setup()
        cfg = TrainConfig(
            max_epochs=10, patience=1, layers=1, hidden_dim=4, seed=5, folds=2
        )
        a_hat = normalize_adjacency(g)
        params, history, _ = train(
            cfg, a_hat, None, features, labels, np.array([0]), np.array([1])
        )
        assert len(history) == 2
        assert history[1][2] > history[0][2]
        one_epoch = replace(cfg, max_epochs=1)
        params_one, _, _ = train(
            one_epoch, a_hat, None, features, labels, np.array([0]), np.array([1])
        )
        assert np.array_equal(params.input_projection, params_one.input_projection)
        assert np.array_equal(params.output_head, params_one.output_head)

    @pytest.mark.parametrize("budget", [None, 15])
    def test_plain_gcn_leaves_layer_weights_at_their_initial_values(self, budget):
        # at alpha = beta = 0 no layer weight reaches the loss, so Adam never moves one
        bundle, g, idx = TestTrainTraceReuse.setup()
        cfg = TrainConfig(max_epochs=6, patience=6, layers=3, hidden_dim=8, seed=9,
                          alpha=0.0, beta=0.0, batch_budget=budget, sampler_runs=30)
        a_hat = normalize_adjacency(g)
        stats = None if budget is None else presample(len(g), runs=30, budget=budget, seed=9)
        params, history, _ = train(cfg, a_hat, stats, bundle.features, bundle.labels,
                                idx[:30], idx[30:])
        fresh = init_params(bundle.features.shape[1], 8, 2, 3, 0.0, 0.0,
                            np.random.default_rng([9, 0]))
        assert len(history) == 6
        assert not np.array_equal(params.input_projection, fresh.input_projection)
        for got, want in zip(params.layers, fresh.layers, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("budget", [None, 15])
    def test_beta_zero_leaves_layer_weights_at_their_initial_values(self, budget):
        # at beta = 0 a layer weight gets no gradient and Adam skips it, with alpha > 0 too
        bundle, g, idx = TestTrainTraceReuse.setup()
        cfg = TrainConfig(max_epochs=6, patience=6, layers=3, hidden_dim=8, seed=9,
                          alpha=0.1, beta=0.0, batch_budget=budget, sampler_runs=30)
        stats = None if budget is None else presample(len(g), runs=30, budget=budget, seed=9)
        params, history, _ = train(cfg, normalize_adjacency(g), stats, bundle.features,
                                   bundle.labels, idx[:30], idx[30:])
        fresh = init_params(bundle.features.shape[1], 8, 2, 3, 0.1, 0.0,
                            np.random.default_rng([9, 0]))
        assert len(history) == 6
        for got, want in zip(params.layers, fresh.layers, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_zero_epochs_returns_init(self):
        g, features, labels = two_node_setup()
        cfg = TrainConfig(max_epochs=0, layers=1, hidden_dim=4, seed=5)
        a_hat = normalize_adjacency(g)
        params, history, _ = train(
            cfg, a_hat, None, features, labels, np.array([0]), np.array([1])
        )
        assert history == []
        rng = np.random.default_rng([5, 0])
        fresh = init_params(2, 4, 2, 1, cfg.alpha, cfg.beta, rng)
        assert np.array_equal(params.input_projection, fresh.input_projection)

    def test_returned_params_achieve_best_recorded_val_loss(self):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=6, seed=4))
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        a_hat = normalize_adjacency(g)
        idx = np.arange(40)
        cfg = TrainConfig(max_epochs=40, patience=5, layers=2, hidden_dim=8, seed=9)
        params, history, _ = train(
            cfg, a_hat, None, bundle.features, bundle.labels, idx[:30], idx[30:]
        )
        logits = forward(params, a_hat, bundle.features).logits
        onehot = np.zeros((40, 2))
        onehot[idx, bundle.labels] = 1.0
        val_loss = cross_entropy(logits, onehot, idx[30:])
        assert val_loss == pytest.approx(min(h[2] for h in history), abs=1e-12)

    def test_deterministic_bit_for_bit(self):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=30, n_roi=6, seed=8))
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        a_hat = normalize_adjacency(g)
        idx = np.arange(30)
        cfg = TrainConfig(max_epochs=15, patience=15, layers=2, hidden_dim=8, seed=3)
        out_a = train(cfg, a_hat, None, bundle.features, bundle.labels, idx[:24], idx[24:])
        out_b = train(cfg, a_hat, None, bundle.features, bundle.labels, idx[:24], idx[24:])
        assert out_a[1] == out_b[1]
        assert np.array_equal(out_a[0].input_projection, out_b[0].input_projection)
        assert np.array_equal(out_a[0].output_head, out_b[0].output_head)
        for wa, wb in zip(out_a[0].layers, out_b[0].layers):
            assert np.array_equal(wa, wb)

    def test_sampled_batches_still_learn_and_are_deterministic(self):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=6, seed=12))
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        a_hat = normalize_adjacency(g)
        idx = np.arange(40)
        cfg = TrainConfig(
            max_epochs=20, patience=20, layers=1, hidden_dim=8, seed=3, batch_budget=15
        )
        out_a = train(cfg, a_hat, None, bundle.features, bundle.labels, idx[:32], idx[32:])
        out_b = train(cfg, a_hat, None, bundle.features, bundle.labels, idx[:32], idx[32:])
        assert out_a[1] == out_b[1]
        assert out_a[1][-1][1] < out_a[1][0][1]

    def test_smoke_separable_dataset(self):
        bundle = generate_synthetic(
            SyntheticSpec(n_subjects=80, n_roi=8, class_separation=3.0, seed=2)
        )
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        a_hat = normalize_adjacency(g)
        idx = np.arange(80)
        cfg = TrainConfig(max_epochs=200, patience=200, layers=2, hidden_dim=16, seed=1)
        params, history, _ = train(
            cfg, a_hat, None, bundle.features, bundle.labels, idx[:64], idx[64:72]
        )
        train_losses = [h[1] for h in history]
        assert train_losses[-1] < train_losses[0]
        assert min(train_losses) < 0.1 * train_losses[0]
        y_hat = predict(forward(params, a_hat, bundle.features).logits)
        acc = np.mean(y_hat.argmax(axis=1)[idx[:64]] == bundle.labels[idx[:64]])
        assert acc > 0.9


class TestTrainTraceReuse:
    """One forward per gradient step plus one end-of-epoch pass over the full
    graph; in full batch that pass is the next epoch's training forward, in
    sampled training a logits-only pass that keeps no trace."""

    @staticmethod
    def setup(n=40):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=n, n_roi=6, seed=4))
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        return bundle, g, np.arange(n)

    @staticmethod
    def count_calls(monkeypatch, name, op_position):
        """Record the operator rows of every call to training.<name>."""
        calls = []
        real = getattr(training, name)

        def counted(*args, **kwargs):
            calls.append(args[op_position].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
        return calls

    @staticmethod
    def digest(history):
        text = "\n".join(f"{e},{tr!r},{vl!r}" for e, tr, vl in history)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_full_batch_forwards_once_per_epoch_plus_one(self, monkeypatch):
        bundle, g, idx = self.setup()
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.count_calls(monkeypatch, "forward_logits", 1)
        backwards = self.count_calls(monkeypatch, "backward", 2)
        cfg = TrainConfig(max_epochs=7, patience=7, layers=2, hidden_dim=8, seed=9)
        a_hat = normalize_adjacency(g)
        _, history, _ = train(cfg, a_hat, None, bundle.features, bundle.labels,
                           idx[:30], idx[30:])
        assert len(history) == 7
        assert forwards == [40] * 8
        assert scores == []
        assert backwards == [40] * 7

    def test_sampled_forwards_once_per_batch_plus_one_per_epoch(self, monkeypatch):
        # 36 of 40 nodes are labeled, so every 15-node batch trains
        bundle, g, idx = self.setup()
        stats = presample(len(g), runs=30, budget=15, seed=9)
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.count_calls(monkeypatch, "forward_logits", 1)
        cfg = TrainConfig(max_epochs=5, patience=5, layers=2, hidden_dim=8, seed=9,
                          batch_budget=15, sampler_runs=30)
        a_hat = normalize_adjacency(g)
        train(cfg, a_hat, stats, bundle.features, bundle.labels, idx[:36], idx[36:])
        assert forwards == [15, 15, 15] * 5   # ceil(40 / 15) batches per epoch
        assert scores == [40] * 5             # then the full graph, with no trace

    @pytest.mark.parametrize("budget", [None, 15])
    def test_a_fold_scores_the_full_graph_once_per_epoch(self, monkeypatch, budget):
        # test probabilities come from the best epoch's scoring pass, so no
        # fold runs a full-graph pass after training: per fold, full batch
        # makes epochs + 1 traced forwards and sampled training epochs passes
        bundle, g, _ = self.setup()
        n = len(g)
        monkeypatch.setattr(training, "fold_workers", lambda folds: 1)
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.count_calls(monkeypatch, "forward_logits", 1)
        cfg = TrainConfig(max_epochs=6, patience=6, folds=3, layers=2, hidden_dim=8, seed=9,
                          batch_budget=budget, sampler_runs=30)
        stats = None if budget is None else presample(n, runs=30, budget=budget, seed=9)
        results = cross_validate(cfg, normalize_adjacency(g), stats, bundle.features,
                                 bundle.labels)
        assert [len(r.history) for r in results] == [6, 6, 6]
        if budget is None:
            assert forwards == [n] * (3 * (6 + 1))
            assert scores == []
        else:
            assert n not in forwards
            assert scores == [n] * (3 * 6)

    @pytest.mark.parametrize("budget", [None, 15])
    @pytest.mark.parametrize("max_epochs", [0, 40])
    def test_fold_probabilities_are_the_returned_params_scores(self, budget, max_epochs):
        # the reused scores are the bits a fresh pass with the fold's params
        # gives, also where the best epoch is not the last one
        bundle, g, _ = self.setup()
        cfg = TrainConfig(learning_rate=0.05, max_epochs=max_epochs, patience=3, folds=3,
                          layers=2, hidden_dim=8, seed=9, batch_budget=budget,
                          sampler_runs=30)
        a_hat = normalize_adjacency(g)
        stats = None if budget is None else presample(len(g), runs=30, budget=budget, seed=9)
        results = cross_validate(cfg, a_hat, stats, bundle.features, bundle.labels)
        if max_epochs:
            best = [min(r.history, key=lambda row: row[2])[0] for r in results]
            assert any(b < len(r.history) for b, r in zip(best, results))
        for r in results:
            want = predict(forward_logits(r.params, a_hat, bundle.features))[r.test_idx]
            assert r.probs.tobytes() == want.tobytes()

    def test_sampled_epoch_peaks_below_one_full_graph_trace(self):
        # n = 1000, L = 10, H = 64: a trace of the full graph holds 2L N x H
        # arrays (10.24 MB); the end-of-epoch pass that only scores keeps none
        bundle, g, idx = self.setup(1000)
        n, layers, hidden = 1000, 10, 64
        cfg = TrainConfig(max_epochs=1, patience=1, layers=layers, hidden_dim=hidden, seed=9,
                          batch_budget=100, sampler_runs=30)
        a_hat, stats = normalize_adjacency(g), presample(n, runs=30, budget=100, seed=9)
        peak, (_, history, _) = peak_bytes(train, cfg, a_hat, stats, bundle.features,
                                        bundle.labels, idx[:900], idx[900:])
        assert len(history) == 1
        assert peak < 2 * layers * n * hidden * 8

    def test_full_batch_rejects_non_unit_gamma(self):
        # full batch restricts nothing, so it refuses sampler statistics
        bundle, g, idx = self.setup()
        stats = presample(len(g), runs=30, budget=15, seed=9)
        a_hat = normalize_adjacency(g)
        cfg = TrainConfig(max_epochs=3, patience=3, folds=2, layers=1, hidden_dim=4, seed=9)
        with pytest.raises(ValueError, match="gamma"):
            train(cfg, a_hat, stats, bundle.features, bundle.labels, idx[:30], idx[30:])
        with pytest.raises(ValueError, match="gamma"):
            cross_validate(cfg, a_hat, stats, bundle.features, bundle.labels)

    def test_history_matches_digests_taken_before_trace_reuse(self):
        # sha256 of the history.csv-style rows, recorded when every epoch ran
        # a separate training forward and backward recomputed op @ h
        bundle, g, idx = self.setup()
        cfg = TrainConfig(max_epochs=12, patience=12, layers=3, hidden_dim=8, seed=9)
        a_hat = normalize_adjacency(g)
        _, full, _ = train(cfg, a_hat, None, bundle.features, bundle.labels,
                        idx[:30], idx[30:])
        stats = presample(len(g), runs=30, budget=15, seed=9)
        sampled_cfg = replace(cfg, batch_budget=15, sampler_runs=30)
        _, sampled, _ = train(sampled_cfg, a_hat, stats, bundle.features,
                           bundle.labels, idx[:30], idx[30:])
        assert self.digest(full) == (
            "535b345ae289fb10b108c26cbf87f26e56a49afae847393fe39cea4a2ebadfa3")
        assert self.digest(sampled) == (
            "5002de1b870c672006802ed87d9f527d472958a343779b22fddb93324692ad5c")

    @pytest.mark.parametrize("alpha, beta, want", [
        (0.0, 0.0, "6598b4bf418532bc10e383cd8541c124a0441ebeae62b735b7b7836029cef478"),
        (0.1, 0.0, "ba75f82ac29c491d9e9b2656a3f643bc478a61176565996fa3178949414399f0"),
        (0.0, 0.3, "813bd8d8922135cf1c7ccfba79091a0842cbd82b21ad71043f50121c0c6bc316"),
    ])
    def test_skip_branch_histories_match_digests_taken_before_term_skipping(
        self, alpha, beta, want
    ):
        # recorded when every layer computed all four terms, zero coefficients included
        bundle, g, idx = self.setup()
        cfg = TrainConfig(max_epochs=12, patience=12, layers=3, hidden_dim=8, seed=9,
                          alpha=alpha, beta=beta)
        a_hat = normalize_adjacency(g)
        _, history, _ = train(cfg, a_hat, None, bundle.features, bundle.labels,
                           idx[:30], idx[30:])
        assert self.digest(history) == want


    @pytest.mark.parametrize("alpha, want", [
        (0.0, "d51b3829d88e7e243c602e0d043127e0f0005d267887aa9df325aa64506642a8"),
        (0.1, "d6bf92d2741ac8c7781f5f1ca0154eda05b1a4f355bbc1775663367c484474c3"),
    ])
    def test_sampled_beta_zero_histories_match_digests_taken_before_adam_skipped(
        self, alpha, want
    ):
        # recorded when backward returned zero layer gradients at beta = 0 and
        # Adam updated every matrix
        bundle, g, idx = self.setup()
        cfg = TrainConfig(max_epochs=12, patience=12, layers=3, hidden_dim=8, seed=9,
                          alpha=alpha, beta=0.0, batch_budget=15, sampler_runs=30)
        stats = presample(len(g), runs=30, budget=15, seed=9)
        _, history, _ = train(cfg, normalize_adjacency(g), stats, bundle.features,
                              bundle.labels, idx[:30], idx[30:])
        assert self.digest(history) == want

    @pytest.mark.parametrize("alpha, beta, budget, want", [
        (0.1, 0.3, None, "fe63c3eb2ddf0d7a3b093ad23cef4948853219350cbea8f5fcb26de12e5142d1"),
        (0.0, 0.0, None, "1398d67f62e34fc0c19845f0f5d390922e7a8e98374619c6729d2c54447f973c"),
        (0.1, 0.3, 15, "902149079d19f390c1adfbd260839b43d07296afde4414fecc31de1fea9e8f08"),
    ])
    def test_depth_twenty_histories_match_digests_taken_before_buffer_reuse(
        self, alpha, beta, budget, want
    ):
        # L = 20, the depth that criterion 5 sweeps, for both of its variants and
        # sampled steps; recorded when each product and elementwise term had its
        # own array, the beta = 0 trace kept the diffusions, and every step
        # multiplied by op.T. Sampled steps still do: a_hat[b, b] * gamma is
        # not symmetric
        bundle, g, idx = self.setup()
        cfg = TrainConfig(max_epochs=12, patience=12, layers=20, hidden_dim=8, seed=9,
                          alpha=alpha, beta=beta, batch_budget=budget, sampler_runs=30)
        stats = None if budget is None else presample(len(g), runs=30, budget=budget, seed=9)
        _, history, _ = train(cfg, normalize_adjacency(g), stats, bundle.features,
                              bundle.labels, idx[:30], idx[30:])
        assert self.digest(history) == want

    @pytest.mark.parametrize("budget, symmetric", [(None, True), (15, False)])
    def test_only_full_batch_steps_multiply_by_a_hat_untransposed(
        self, monkeypatch, budget, symmetric
    ):
        bundle, g, idx = self.setup()
        promised = []
        real = training.backward

        def recorded(*args, **kwargs):
            promised.append(kwargs.get("symmetric", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "backward", recorded)
        cfg = TrainConfig(max_epochs=2, patience=2, layers=2, hidden_dim=8, seed=9,
                          batch_budget=budget, sampler_runs=30)
        stats = None if budget is None else presample(len(g), runs=30, budget=budget, seed=9)
        train(cfg, normalize_adjacency(g), stats, bundle.features, bundle.labels,
              idx[:36], idx[36:])
        assert promised and set(promised) == {symmetric}


class TestNonFiniteLoss:
    @staticmethod
    def train_with_nan_feature(**coefficients):
        bundle, g, idx = TestTrainTraceReuse.setup()
        features = bundle.features.copy()
        features[3, 2] = np.nan
        cfg = TrainConfig(max_epochs=5, patience=5, layers=2, hidden_dim=8, seed=9,
                          **coefficients)
        with pytest.raises(NonFiniteLoss, match="epoch 1"):
            a_hat = normalize_adjacency(g)
            train(cfg, a_hat, None, features, bundle.labels, idx[:30], idx[30:])

    def test_nan_feature_fails_at_epoch_one(self):
        self.train_with_nan_feature()

    def test_nan_feature_fails_at_epoch_one_without_skip_terms(self):
        self.train_with_nan_feature(alpha=0.0, beta=0.0)

    def test_cross_validate_names_the_fold(self, monkeypatch):
        bundle, g, _ = TestTrainTraceReuse.setup()
        features = bundle.features.copy()
        features[3, 2] = np.nan
        cfg = TrainConfig(max_epochs=5, patience=5, folds=2, layers=2, hidden_dim=8, seed=9)
        a_hat = normalize_adjacency(g)
        for workers in (1, 2):
            monkeypatch.setattr(training, "fold_workers", lambda folds, w=workers: w)
            with pytest.raises(NonFiniteLoss, match="fold 0, epoch 1"):
                cross_validate(cfg, a_hat, None, features, bundle.labels)


class TestSampledInference:
    def test_half_budget_lands_near_full_batch(self):
        # gamma ~ 2 per edge at budget n/2; ten layers of it on the full
        # graph would saturate the softmax, so validation and test must
        # use unit aggregation
        bundle = generate_synthetic(
            SyntheticSpec(n_subjects=60, n_roi=10, class_separation=3.0, seed=0)
        )
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        cfg = TrainConfig(max_epochs=100, patience=100, folds=3, layers=10, hidden_dim=16,
                          seed=1)
        sampled_cfg = replace(cfg, batch_budget=30, sampler_runs=50)
        stats = presample(len(g), runs=50, budget=30, seed=1)

        def accuracy(results):
            return np.mean([
                np.mean(r.probs.argmax(axis=1) == bundle.labels[r.test_idx]) for r in results
            ])

        a_hat = normalize_adjacency(g)   # once: both calls share it
        full = cross_validate(cfg, a_hat, None, bundle.features, bundle.labels)
        sampled = cross_validate(sampled_cfg, a_hat, stats, bundle.features, bundle.labels)
        assert accuracy(full) > 0.9
        assert accuracy(sampled) >= accuracy(full) - 0.1
        for r in sampled:
            assert len({h[1] for h in r.history}) > 1
            assert len({h[2] for h in r.history}) > 1
            assert r.probs.min() > 1e-6


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_budget", 0),
        ("batch_budget", -5),
        ("layers", -1),
        ("hidden_dim", 0),
        ("sampler_runs", 0),
        ("max_epochs", -3),
        ("seed", -1),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", "0.1"),
        ("alpha", 2.0),
        ("beta", float("nan")),
        ("layers", 2.5),
        ("hidden_dim", True),
        ("batch_budget", "20"),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("budget, n, full", [(None, 5, True), (5, 5, True), (6, 5, True),
                                                 (4, 5, False), (1, 2, False)])
    def test_full_batch_is_no_budget_or_one_covering_the_graph(self, budget, n, full):
        assert TrainConfig(batch_budget=budget).full_batch(n) is full

    def test_accepts_boundary_values(self):
        cfg = TrainConfig(batch_budget=1, layers=0, hidden_dim=1, sampler_runs=1, max_epochs=0)
        assert cfg.batch_budget == 1


class TestCrossValidate:
    def test_folds_cover_everything_once(self):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=40, n_roi=6, seed=6))
        g = build_adjacency(
            PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        )
        cfg = TrainConfig(max_epochs=5, patience=5, folds=4, layers=1, hidden_dim=8, seed=2)
        results = cross_validate(cfg, normalize_adjacency(g), None, bundle.features,
                                 bundle.labels)
        assert len(results) == 4
        seen = np.concatenate([r.test_idx for r in results])
        assert sorted(seen.tolist()) == list(range(40))
        for r in results:
            assert r.probs.shape == (r.test_idx.size, 2)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_builds_each_operator_once_per_call(self, monkeypatch, sampled):
        # the caller builds a_hat once; every fold of every call shares that very
        # array and the caller's stats, and no call changes it, so a sweep
        # passes one a_hat to all its calls; minibatches form their own gamma
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        want = a_hat.copy()
        shared = []
        real_train_folds = training._train_folds
        monkeypatch.setattr(training, "_train_folds",
                            lambda arrays, tasks: shared.append(arrays) or real_train_folds(
                                arrays, tasks))
        cfg = TrainConfig(max_epochs=2, patience=2, folds=3, layers=1, hidden_dim=4, seed=9)
        stats = None
        if sampled:
            cfg = replace(cfg, batch_budget=15, sampler_runs=30)
            stats = presample(len(g), runs=30, budget=15, seed=9)
        first = cross_validate(cfg, a_hat, stats, bundle.features, bundle.labels)
        second = cross_validate(cfg, a_hat, stats, bundle.features, bundle.labels)
        assert len(first) == 3
        TestFoldWorkers.assert_same_results(first, second)
        assert [arrays[0] is a_hat and arrays[1] is stats for arrays in shared] == [True] * 2
        assert a_hat.tobytes() == want.tobytes()

    def test_sampled_folds_share_one_n_by_n_array(self, monkeypatch):
        # the folds need a_hat and the runs x n membership, never an N x N gamma or op
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        shared = []
        real_train_folds = training._train_folds
        monkeypatch.setattr(training, "_train_folds",
                            lambda arrays, tasks: shared.append(arrays) or real_train_folds(
                                arrays, tasks))
        cfg = TrainConfig(max_epochs=2, patience=2, folds=3, layers=1, hidden_dim=4, seed=9,
                          batch_budget=15, sampler_runs=30)
        stats = presample(len(a_hat), runs=30, budget=15, seed=9)
        cross_validate(cfg, a_hat, stats, bundle.features, bundle.labels)
        (arrays,) = shared
        held = []
        for item in arrays:  # the arrays themselves, and those a record holds
            held += [item, *vars(item).values()] if hasattr(item, "__dict__") else [item]
        square = [a for a in held if isinstance(a, np.ndarray) and a.shape == a_hat.shape]
        assert len(square) == 1
        assert square[0] is a_hat


needs_blas_threads = pytest.mark.skipif(
    training._blas_thread_api() is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="no OpenBLAS thread-count symbols or no fork: folds always train in-process",
)


class TestFoldWorkers:
    """Folds train in forked workers, one BLAS thread each, with the same
    results as in-process training."""

    CFG = TrainConfig(max_epochs=6, patience=6, folds=3, layers=2, hidden_dim=8, seed=9)

    @staticmethod
    def use_workers(monkeypatch, workers):
        monkeypatch.setattr(training, "fold_workers", lambda folds: workers)

    @staticmethod
    def in_process_folds(monkeypatch):
        """Fold numbers `_train_fold` trains in this process (not in a worker)."""
        folds = []
        real = training._train_fold

        def spy(shared, task):
            folds.append(task[0])
            return real(shared, task)

        monkeypatch.setattr(training, "_train_fold", spy)
        return folds

    @staticmethod
    def assert_same_results(a, b):
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.fold == rb.fold
            assert np.array_equal(ra.test_idx, rb.test_idx)
            assert ra.history == rb.history
            assert ra.probs.tobytes() == rb.probs.tobytes()
            for ma, mb in zip(ra.params.matrices(), rb.params.matrices()):
                assert ma.tobytes() == mb.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("folds", [2, 3, 10])
    def test_worker_count_is_between_one_and_folds(self, monkeypatch, cpus, folds):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert training.fold_workers(folds) == min(cpus, folds)

    def test_worker_count_without_affinity_or_cpu_count_is_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert training.fold_workers(10) == 1

    @needs_blas_threads
    def test_two_workers_match_one_and_leave_no_child(self, monkeypatch):
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        in_process = self.in_process_folds(monkeypatch)
        get_threads = training._blas_thread_api()[0]
        threads = get_threads()
        self.use_workers(monkeypatch, 1)
        serial = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert in_process == [0, 1, 2]
        assert get_threads() == threads   # restored after the single-thread folds
        self.use_workers(monkeypatch, 2)
        parallel = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert in_process == [0, 1, 2]    # the workers trained every fold
        assert get_threads() == threads
        assert multiprocessing.active_children() == []
        self.assert_same_results(serial, parallel)

    @needs_blas_threads
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_fold_trains_on_one_blas_thread(self, monkeypatch, workers):
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        get_threads = training._blas_thread_api()[0]

        def report_threads(config, a_hat, stats, features, *_):
            params = init_params(features.shape[1], 2, 2, 0, 0.0, 0.0,
                                 np.random.default_rng(0))
            return params, [(get_threads(), 0.0, 0.0)], np.zeros((len(features), 2))

        monkeypatch.setattr(training, "train", report_threads)
        self.use_workers(monkeypatch, workers)
        threads = get_threads()
        results = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert [r.history for r in results] == [[(1, 0.0, 0.0)]] * 3
        assert get_threads() == threads

    @needs_blas_threads
    def test_worker_error_reaches_the_caller_and_leaves_no_child(self, monkeypatch):
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        real_train = training.train

        def train_failing_on_second_fold(config, *args):
            if config.seed == seeds[1]:
                raise KeyError(f"no such thing in seed {config.seed}")
            return real_train(config, *args)

        seeds = [int(np.random.SeedSequence([self.CFG.seed, 17, f]).generate_state(1)[0])
                 for f in range(self.CFG.folds)]
        monkeypatch.setattr(training, "train", train_failing_on_second_fold)
        self.use_workers(monkeypatch, 2)
        get_threads = training._blas_thread_api()[0]
        threads = get_threads()
        with pytest.raises(KeyError, match=f"no such thing in seed {seeds[1]}"):
            cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert multiprocessing.active_children() == []
        assert get_threads() == threads   # the caller's BLAS held one thread only while folds ran

    @needs_blas_threads
    def test_concurrent_calls_restore_the_thread_count(self, monkeypatch):
        # two threads inside _train_folds at once, the first leaving first: the
        # second still trains on one thread, and the last one out restores the
        # count the first one in saved
        get_threads = training._blas_thread_api()[0]
        threads = get_threads()
        if threads < 2:
            pytest.skip("OpenBLAS runs one thread here, so a lost restore would not show")
        both_in = threading.Barrier(2, timeout=60)
        first_done = threading.Event()
        seen = {}

        def fold(shared, task):
            both_in.wait()
            if task == "second":
                first_done.wait(60)
            seen[task] = get_threads()
            return task

        def call(task):
            training._train_folds((), [task])
            if task == "first":
                first_done.set()

        monkeypatch.setattr(training, "_train_fold", fold)
        callers = [threading.Thread(target=call, args=(task,)) for task in ("first", "second")]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert seen == {"first": 1, "second": 1}
        assert get_threads() == threads

    @needs_blas_threads
    def test_many_threads_calling_at_once_keep_the_pin(self, monkeypatch):
        # more callers than cores and a short switch interval: every fold sees
        # one BLAS thread, and the count the first caller saw comes back
        get_threads = training._blas_thread_api()[0]
        threads = get_threads()
        seen = []
        monkeypatch.setattr(training, "_train_fold",
                            lambda shared, task: seen.append(get_threads()) or task)

        def calls():
            for k in range(50):
                training._train_folds((), [k, k + 1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=calls) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert seen == [1] * 400
        assert get_threads() == threads

    def test_without_thread_symbols_folds_train_in_process(self, monkeypatch):
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        default = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        in_process = self.in_process_folds(monkeypatch)
        monkeypatch.setattr(training, "_blas_thread_api", lambda: None)
        self.use_workers(monkeypatch, 2)
        serial = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert in_process == [0, 1, 2]
        self.assert_same_results(default, serial)

    def test_while_other_threads_run_folds_train_in_process(self, monkeypatch):
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        in_process = self.in_process_folds(monkeypatch)
        self.use_workers(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert in_process == [0, 1, 2]
        assert multiprocessing.active_children() == []

    @needs_blas_threads
    def test_consecutive_calls_each_use_workers(self, monkeypatch):
        # a pool's own threads must be gone once it returns, or every later
        # call (sweep-depth makes four) would fall back to in-process training
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        in_process = self.in_process_folds(monkeypatch)
        self.use_workers(monkeypatch, 2)
        for _ in range(3):
            cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        assert in_process == []
        assert threading.active_count() == 1

    def test_importing_the_cli_loads_no_process_pool(self):
        code = ("import sys, angcn.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        src = str(Path(training.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
