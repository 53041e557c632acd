import math
import multiprocessing
import os
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
)
from angcn.model import ModelParams, forward, forward_logits, init_params, predict
from angcn.popgraph import build_adjacency, normalize_adjacency
from angcn.sampler import aggregation_matrix, presample, sample_node_subgraph
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

from graphs import adjacency, blas_threads, peak_bytes


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
    Each layer's diffusion is recomputed as op @ h from the layer's input, as
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
        s = op @ inputs[ell]
        d_layers[ell] = beta * ((s + x0).T @ g)
        g_iw = g @ iw.T
        d_x0 += alpha * g + beta * g_iw
        d_h = op.T @ ((1.0 - alpha) * g + beta * g_iw)
    d_x0 += d_h
    return [trace.raw_input.T @ d_x0, *d_layers, d_head]


def reference_train(config, a_hat, s, features, labels, train_idx, val_idx):
    """The plainest loop that `train` must match bit for bit, with none of
    trace reuse, term skipping, Adam skipping, buffer reuse or block
    scoring: `train`'s seeds and minibatch operator
    a_hat[b, b] * aggregation_matrix(s, b); per step a traced forward of its
    own and four_term_backward; Adam on every matrix; each epoch scored by a
    forward_logits pass of its own; EarlyStopper's rule; one BLAS thread.
    Returns what `train` does."""
    n, onehot = len(a_hat), np.eye(2)[labels]
    params = init_params(features.shape[1], config.hidden_dim, 2, config.layers, config.alpha,
                         config.beta, np.random.default_rng([config.seed, 0]))
    mats = params.matrices()
    ms, vs = [np.zeros_like(w) for w in mats], [np.zeros_like(w) for w in mats]
    stopper, history, t = EarlyStopper(config.patience), [], 0
    with training.blas_pin():
        for epoch in range(1, config.max_epochs + 1):
            steps = [(a_hat, features, onehot, train_idx)]
            if not config.full_batch(n):
                batches = [sample_node_subgraph(n, config.batch_budget,
                                                np.random.default_rng([config.seed, 2, epoch, b]))
                           for b in range(-(-n // config.batch_budget))]
                steps = [(a_hat[np.ix_(b, b)] * aggregation_matrix(s, b), features[b], onehot[b],
                          np.flatnonzero(np.isin(b, train_idx))) for b in batches]
            for op, x, y, labeled in steps:
                if labeled.size:
                    grads = four_term_backward(forward(params, op, x), params, op, y, labeled)
                    t += 1
                    mats, ms, vs = out_of_place_adam_step(mats, ms, vs, grads, t,
                                                          config.learning_rate)
                    params = ModelParams(mats[0], mats[1:-1], mats[-1], config.alpha, config.beta)
            logits = forward_logits([params], a_hat, features)[0]
            history.append((epoch, cross_entropy(logits, onehot, train_idx),
                            cross_entropy(logits, onehot, val_idx)))
            stop = stopper.update(epoch, history[-1][2])
            if stopper.best_epoch == epoch:
                best_params, best_logits = params, logits
            if stop:
                break
    return best_params, history, best_logits


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
        got = backward(trace, onehot, labeled)
        want = four_term_backward(trace, params, op, onehot, labeled)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.3)])
    def test_a_hat_untransposed_gives_the_transposed_bits(self, alpha, beta):
        # normalize_adjacency makes a_hat exactly symmetric, and a_hat @ d_s
        # sums what backward's a_hat.T @ d_s does: the reference, handed
        # a_hat.T, multiplies by a_hat itself
        bundle = generate_synthetic(SyntheticSpec(n_subjects=300, seed=23))
        a_hat = normalize_adjacency(build_adjacency(bundle.features, bundle.phenotypes)[0])
        assert np.array_equal(a_hat, a_hat.T)
        rng = np.random.default_rng(23)
        params = init_params(bundle.features.shape[1], 64, 2, 10, alpha, beta, rng)
        onehot, labeled = np.eye(2)[bundle.labels], np.arange(0, 300, 2)
        trace = forward(params, a_hat, bundle.features)
        got = backward(trace, onehot, labeled)
        want = four_term_backward(trace, params, a_hat.T, onehot, labeled)
        for g, w in zip(got, want, strict=True):  # at beta = 0 the reference's zeros are signed
            assert np.array_equal(g, w)

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
        grads = backward(trace, onehot, [0, 1])
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
        grads = backward(trace, onehot, labeled)
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

    def test_power_path_matches_central_differences(self):
        # L = 4 plain GCN, its layers 2..4 taken as one product with op^3 and
        # back through (op^3).T and layer 1's mask: each gradient entry against
        # a central difference of the layer loop's loss
        _, op, x, onehot, labeled = gradcheck_fixture(seed=7)
        params = init_params(x.shape[1], 4, 2, 4, 0.0, 0.0, np.random.default_rng(7))
        power = np.linalg.matrix_power(op, 3)
        assert op.min() >= 0 and not np.array_equal(op, op.T)
        grads = backward(forward(params, op, x, power), onehot, labeled)
        worst, step = 0.0, 1e-5
        for mat, grad in zip(params.matrices(), grads, strict=True):
            for ix in np.ndindex(mat.shape):
                theta, losses = mat[ix], []
                for shifted in (theta + step, theta - step):
                    mat[ix] = shifted
                    losses.append(cross_entropy(forward_logits([params], op, x)[0], onehot,
                                                labeled))
                mat[ix] = theta
                numeric = (losses[0] - losses[1]) / (2.0 * step)
                denom = max(abs(grad[ix]), abs(numeric), 1e-8)
                worst = max(worst, abs(grad[ix] - numeric) / denom)
        assert worst < 1e-6

    @staticmethod
    def paper_shape():
        """n = 300 seed-0 bundle, whole-graph a_hat * gamma from presample(300,
        runs=200, budget=100), L = 10, H = 64 init_params weights, 200 labeled
        nodes; returns (params, op, features, onehot, labeled, rng)."""
        bundle = generate_synthetic(SyntheticSpec(n_subjects=300, seed=0))
        a_hat = normalize_adjacency(build_adjacency(bundle.features, bundle.phenotypes)[0])
        op = a_hat * aggregation_matrix(presample(300, runs=200, budget=100, seed=0))
        rng = np.random.default_rng(3)
        params = init_params(bundle.features.shape[1], 64, 2, 10, alpha=0.1, beta=0.3,
                             rng=rng)
        labeled = np.sort(rng.choice(300, size=200, replace=False))
        return params, op, bundle.features, np.eye(2)[bundle.labels], labeled, rng

    @staticmethod
    def directional_errors(params, op, x, onehot, labeled, rng, directions):
        """Relative gap between <grad L, v> from backward and a central
        difference (step 1e-5) of the loss along each of `directions` random
        unit directions v."""
        def loss(p):
            return cross_entropy(forward(p, op, x).logits, onehot, labeled)

        grads = backward(forward(params, op, x), onehot, labeled)
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

    def test_directional_derivatives_at_paper_shape(self):
        # n = 300, L = 10, H = 64 on the sampled operator a_hat * gamma: <grad L, v>
        # from backward against a central difference of two forwards along unit
        # directions v. With no biases and a positively homogeneous ReLU the
        # logits scale with the inputs; they are scaled to a largest logit of 2,
        # where no softmax probability is near 0.
        # Measured: relative errors up to 2.4e-9 at step 1e-5, and ReLU kinks
        # crossed at step 1e-4 give up to 5.6e-4, so the bound is 1e-6.
        params, op, x, onehot, labeled, rng = self.paper_shape()
        x = x * (2.0 / np.abs(forward(params, op, x).logits).max())
        errors = self.directional_errors(params, op, x, onehot, labeled, rng, 3)
        assert max(errors) < 1e-6

    def test_loss_agrees_with_backward_where_the_softmax_underflows(self):
        # the same shape at the features' own scale: the logits reach 7.95e5 and
        # half the labeled rows' true-class probabilities are 0. A loss floored
        # at 1e-300 is flat there (relative error 1.0 in every direction); read
        # off the logits it matches backward (measured: at most 8e-10)
        params, op, x, onehot, labeled, rng = self.paper_shape()
        assert np.abs(forward(params, op, x).logits).max() > 7e5
        errors = self.directional_errors(params, op, x, onehot, labeled, rng, 5)
        assert max(errors) < 1e-6

    def test_no_labeled_node_is_refused(self):
        params, op, x_raw, onehot, _ = gradcheck_fixture(seed=3)
        trace = forward(params, op, x_raw)
        with pytest.raises(EmptyLabeledSet,
                           match=r"^gradients need at least one labeled node$"):
            backward(trace, onehot, [])

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


def out_of_place_adam_step(mats, ms, vs, gmats, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t of the update rule as fresh arrays, in the in-place rule's
    arithmetic order: the new (mats, ms, vs)."""
    ms = [beta1 * m + (1.0 - beta1) * g for m, g in zip(ms, gmats)]
    vs = [beta2 * v + (1.0 - beta2) * g * g for v, g in zip(vs, gmats)]
    mats = [
        w - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        for w, m, v in zip(mats, ms, vs)
    ]
    return mats, ms, vs


def out_of_place_adam(mats, grads_seq, lr):
    """The update rule as fresh arrays per step, from zero moments."""
    ms = [np.zeros_like(w) for w in mats]
    vs = [np.zeros_like(w) for w in mats]
    for t, gmats in enumerate(grads_seq, start=1):
        mats, ms, vs = out_of_place_adam_step(mats, ms, vs, gmats, t, lr)
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
        assert adam_step(state, grads, lr=0.05) is None
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
        adam_step(state, grads, lr=0.1)
        assert np.array_equal(params.input_projection, before.input_projection)
        assert state.t == 1

    def test_two_steps_match_hand_recurrence(self):
        g1, g2 = 0.7, -1.3
        params = one_param_model(0.25)
        state = AdamState.for_params(params)
        for g in (g1, g2):
            grads = [np.array([[g]]), np.zeros((1, 1))]
            adam_step(state, grads, lr=0.01)
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
            adam_step(state, grads, lr=0.02)
        assert state.t == 3
        for got, expected in zip(params.matrices(), want):
            assert np.array_equal(got, expected)
        for got, expected in zip(state.first_moment + state.second_moment, want_m + want_v):
            assert np.array_equal(got, expected)

    def test_wrong_shape_raises_before_mutating(self):
        rng = np.random.default_rng(9)
        params = init_params(5, 4, 2, n_layers=2, alpha=0.1, beta=0.3, rng=rng)
        state = AdamState.for_params(params)
        adam_step(state, random_grads(params, rng), lr=0.02)  # nonzero moments
        before = params.copy()
        moments = [m.copy() for m in state.first_moment + state.second_moment]
        bad = random_grads(params, rng)
        bad[2] = np.ones((4, 3))  # layer 1
        with pytest.raises(ShapeMismatch):
            adam_step(state, bad, lr=0.02)
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
    def test_overlapping_train_and_validation_indices_are_refused(self):
        g, features, labels = two_node_setup()
        cfg = TrainConfig(max_epochs=1, layers=1, hidden_dim=4)
        with pytest.raises(ValueError,
                           match=r"^train and validation index sets must be disjoint$"):
            train(cfg, normalize_adjacency(g), None, features, labels,
                  np.array([0, 1]), np.array([1]))

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
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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

    @pytest.mark.skipif(training._blas_thread_api() is None,
                        reason="no OpenBLAS thread-count symbols to read")
    def test_trains_at_one_blas_thread_and_gives_the_count_back(self, monkeypatch):
        # block scoring needs its premise only at the one thread train holds,
        # whatever its caller's count
        bundle, g, idx = TestTrainTraceReuse.setup()
        get_threads = training._blas_thread_api()[0]
        seen = []
        real = training.forward_logits
        monkeypatch.setattr(training, "forward_logits",
                            lambda *args: seen.append(get_threads()) or real(*args))
        cfg = TrainConfig(max_epochs=2, patience=2, layers=1, hidden_dim=4, seed=9,
                          batch_budget=15, sampler_runs=30)
        stats = presample(len(g), runs=30, budget=15, seed=9)
        with blas_threads(2):
            if get_threads() < 2:
                pytest.skip("OpenBLAS runs one thread here, so a lost pin would not show")
            train(cfg, normalize_adjacency(g), stats, bundle.features, bundle.labels,
                  idx[:30], idx[30:])
            assert get_threads() == 2
        assert seen == [1, 1]


class TestTrainTraceReuse:
    """One forward per gradient step plus a pass over the full graph that
    scores each epoch once; in full batch that pass is the next epoch's
    training forward, in sampled training a logits-only pass that keeps no
    trace and scores a block of epochs."""

    @staticmethod
    def setup(n=40):
        bundle = generate_synthetic(SyntheticSpec(n_subjects=n, n_roi=6, seed=4))
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
        return bundle, g, np.arange(n)

    @staticmethod
    def count_calls(monkeypatch, name, op_position):
        """Record the operator rows of every call to training.<name>: its
        argument at `op_position`, or for None (backward) its trace's operator."""
        calls = []
        real = getattr(training, name)

        def counted(*args, **kwargs):
            op = args[0].op if op_position is None else args[op_position]
            calls.append(op.shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
        return calls

    def test_full_batch_forwards_once_per_epoch_plus_one(self, monkeypatch):
        bundle, g, idx = self.setup()
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.count_calls(monkeypatch, "forward_logits", 1)
        backwards = self.count_calls(monkeypatch, "backward", None)
        cfg = TrainConfig(max_epochs=7, patience=7, layers=2, hidden_dim=8, seed=9)
        a_hat = normalize_adjacency(g)
        _, history, _ = train(cfg, a_hat, None, bundle.features, bundle.labels,
                           idx[:30], idx[30:])
        assert len(history) == 7
        assert forwards == [40] * 8
        assert scores == []
        assert backwards == [40] * 7

    @staticmethod
    def record_scores(monkeypatch):
        """Record (operator rows, weight sets, trace) of every training.forward_logits call."""
        calls = []
        real = training.forward_logits

        def recorded(param_sets, op, x_raw, trace=None):
            calls.append((op.shape[0], len(param_sets), trace))
            return real(param_sets, op, x_raw, trace)

        monkeypatch.setattr(training, "forward_logits", recorded)
        return calls

    def test_sampled_forwards_once_per_batch_plus_one_per_epoch(self, monkeypatch):
        # 108 of 120 nodes are labeled, so every 40-node batch trains. At
        # H = 16 a block scores up to 120 // 48 = 2 epochs in one pass: every
        # epoch is scored once, on all 120 rows, with no trace
        bundle, g, idx = self.setup(120)
        stats = presample(len(g), runs=30, budget=40, seed=9)
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.record_scores(monkeypatch)
        cfg = TrainConfig(max_epochs=5, patience=5, layers=2, hidden_dim=16, seed=9,
                          batch_budget=40, sampler_runs=30)
        a_hat = normalize_adjacency(g)
        _, history, _ = train(cfg, a_hat, stats, bundle.features, bundle.labels,
                              idx[:108], idx[108:])
        assert len(history) == 5
        assert forwards == [40, 40, 40] * 5   # ceil(120 / 40) batches per epoch
        assert scores == [(120, 2, None), (120, 2, None), (120, 1, None)]

    @pytest.mark.parametrize("budget", [None, 15])
    def test_a_fold_scores_the_full_graph_once_per_epoch(self, monkeypatch, budget):
        # test probabilities come from the best epoch's scoring pass, so no
        # fold runs a full-graph pass after training: per fold, full batch
        # makes epochs + 1 traced forwards, and sampled training scores its
        # 6 epochs in blocks of 120 // 48 = 2, each on all n rows, untraced
        bundle, g, _ = self.setup(120)
        n = len(g)
        monkeypatch.setattr(training, "fold_workers", lambda folds: 1)
        forwards = self.count_calls(monkeypatch, "forward", 1)
        scores = self.record_scores(monkeypatch)
        cfg = TrainConfig(max_epochs=6, patience=6, folds=3, layers=2, hidden_dim=16, seed=9,
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
            assert scores == [(n, 2, None)] * (3 * 3)

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
            want = predict(forward_logits([r.params], a_hat, bundle.features)[0])[r.test_idx]
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

    def assert_trains_like_the_reference(self, n=40, labeled=30, budget=None, signed=False,
                                         mean=False, **fields):
        """Train on setup(n), its first `labeled` nodes labeled, with seed 9
        and a TrainConfig of `fields`, by `train` and by reference_train;
        assert the same history, logits and weights, bit for bit, and
        return the history. `signed` negates a_hat's first edge; `mean`
        trains on mean aggregation's row-normalized D^-1 (A + I) in place of
        a_hat, an operator >= 0 that is not symmetric.

        Full-batch training of the plain GCN at L >= 3 over an a_hat >= 0
        takes layers 2..L as one product with a_hat^(L-1), which sums in
        another order: there each array (the history's losses, the logits,
        every weight) must lie within 1e-12 of its largest value, and the
        epochs and the best epoch must be the same."""
        bundle, g, idx = self.setup(n)
        a_hat, cfg = normalize_adjacency(g), TrainConfig(seed=9, batch_budget=budget,
                                                         sampler_runs=30, **fields)
        if signed:
            i, j = np.argwhere(np.triu(a_hat, k=1))[0]
            a_hat[i, j] = a_hat[j, i] = -a_hat[i, j]
        if mean:
            a_hat = g + np.eye(n)
            a_hat /= a_hat.sum(axis=1, keepdims=True)
            assert not np.array_equal(a_hat, a_hat.T)
        stats = None if budget is None else presample(n, runs=30, budget=budget, seed=9)
        got, want = (fit(cfg, a_hat, stats, bundle.features, bundle.labels, idx[:labeled],
                         idx[labeled:]) for fit in (train, reference_train))
        if budget is None and cfg.layers >= 3 and not (cfg.alpha or cfg.beta) \
                and a_hat.min() >= 0:
            got_rows, want_rows = np.array(got[1]), np.array(want[1])
            assert got_rows[:, 0].tolist() == want_rows[:, 0].tolist()
            assert np.argmin(got_rows[:, 2]) == np.argmin(want_rows[:, 2])
            for got_a, want_a in [(got_rows[:, 1:], want_rows[:, 1:]), (got[2], want[2]),
                                  *zip(got[0].matrices(), want[0].matrices(), strict=True)]:
                assert np.abs(got_a - want_a).max() <= 1e-12 * np.abs(want_a).max()
            return got[1]
        assert got[1] == want[1]
        assert got[2].tobytes() == want[2].tobytes()
        for got_w, want_w in zip(got[0].matrices(), want[0].matrices(), strict=True):
            assert got_w.tobytes() == want_w.tobytes()
        return got[1]

    def test_history_matches_the_reference_without_trace_reuse(self):
        # the reference runs a training forward of its own for every step and
        # a scoring pass of its own for every epoch, in full batch and sampled
        for budget in (None, 15):
            self.assert_trains_like_the_reference(budget=budget, max_epochs=12, patience=12,
                                                  layers=3, hidden_dim=8)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.3)])
    def test_skip_branch_histories_match_the_reference_without_term_skipping(self, alpha, beta):
        # the reference computes all four terms, zero coefficients included
        self.assert_trains_like_the_reference(max_epochs=12, patience=12, layers=3, hidden_dim=8,
                                              alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_sampled_beta_zero_histories_match_the_reference_without_adam_skipping(self, alpha):
        # the reference's backward returns zero layer gradients at beta = 0,
        # and its Adam updates every matrix
        self.assert_trains_like_the_reference(budget=15, max_epochs=12, patience=12, layers=3,
                                              hidden_dim=8, alpha=alpha, beta=0.0)

    @pytest.mark.parametrize("alpha, beta, budget", [(0.1, 0.3, None), (0.0, 0.0, None),
                                                     (0.1, 0.3, 15)])
    def test_depth_twenty_histories_match_the_reference_without_buffer_reuse(
        self, alpha, beta, budget
    ):
        # L = 20, the depth that criterion 5 sweeps, for both of its variants and
        # sampled steps; the reference gives each product and elementwise term
        # its own array and multiplies every step by op.T
        self.assert_trains_like_the_reference(budget=budget, max_epochs=12, patience=12,
                                              layers=20, hidden_dim=8, alpha=alpha, beta=beta)

    def test_signed_operator_histories_match_the_reference_bitwise(self):
        # one negative edge: a later layer's ReLU may cut, so the plain GCN at
        # L = 3 keeps the layer loop, and its bits are the reference's
        self.assert_trains_like_the_reference(signed=True, max_epochs=12, patience=12,
                                              layers=3, hidden_dim=8, alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("alpha, beta, layers", [(0.1, 0.3, 2), (0.0, 0.0, 4)])
    def test_asymmetric_operator_histories_match_the_reference(self, alpha, beta, layers):
        # full batch on an operator that is not its own transpose: backward
        # multiplies by its transpose, as the reference does; the plain GCN
        # at L = 4 takes the P path, within 1e-12
        self.assert_trains_like_the_reference(mean=True, max_epochs=12, patience=12,
                                              layers=layers, hidden_dim=8, alpha=alpha,
                                              beta=beta)

    @pytest.mark.parametrize("alpha, beta, per_epoch", [(0.0, 0.0, 4), (0.1, 0.3, 2 * 20)])
    def test_full_batch_epoch_products_with_the_operator(self, alpha, beta, per_epoch):
        # L = 20: an N x N x H product per layer each way for the ANGCN; for the
        # plain GCN a_hat and a_hat^19 once each way, whatever L is. The first
        # forward adds half an epoch's products
        bundle, g, idx = self.setup()
        n, hidden, epochs = len(g), 8, 3
        products = []

        class Counted(np.ndarray):
            """An operator that counts its N x N x H products, and passes
            itself on to the N x N products made from it (its powers)."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                result = getattr(ufunc, method)(*plain, **kwargs)
                if ufunc is np.matmul:
                    shapes = sorted(np.shape(x) for x in plain)
                    if shapes == [(n, hidden), (n, n)]:
                        products.append(shapes)
                    elif shapes == [(n, n), (n, n)]:
                        return result.view(Counted)
                return result

        cfg = TrainConfig(max_epochs=epochs, patience=epochs, layers=20, hidden_dim=hidden,
                          seed=9, alpha=alpha, beta=beta)
        train(cfg, normalize_adjacency(g).view(Counted), None, bundle.features, bundle.labels,
              idx[:30], idx[30:])
        assert len(products) == per_epoch * epochs + per_epoch // 2

    @pytest.mark.parametrize("hidden, alpha, beta, patience, epochs", [
        (16, 0.0, 0.0, 2, 6), (16, 0.0, 0.0, 9, 9), (16, 0.1, 0.3, 2, 6), (16, 0.1, 0.3, 9, 9),
        (64, 0.0, 0.0, 2, 4), (64, 0.0, 0.0, 9, 9), (64, 0.1, 0.3, 2, 4), (64, 0.1, 0.3, 9, 9),
        (5, 0.0, 0.0, 9, 9), (5, 0.1, 0.3, 9, 9),
    ])
    def test_blocked_histories_match_the_reference_without_block_scoring(
        self, monkeypatch, hidden, alpha, beta, patience, epochs
    ):
        # n = 400 scores up to 8 (H = 16) or 2 (H = 64) epochs per pass, and
        # H = 5, no whole 16-column panel, one; the reference scores each
        # epoch in a pass of its own
        scores = self.record_scores(monkeypatch)
        history = self.assert_trains_like_the_reference(
            n=400, labeled=340, budget=100, learning_rate=0.1, max_epochs=9, patience=patience,
            layers=3, hidden_dim=hidden, alpha=alpha, beta=beta)
        assert len(history) == epochs
        assert (max(k for _, k, _ in scores) > 1) == (hidden % 16 == 0)
        assert sum(k for _, k, _ in scores) == epochs

    def test_a_scoring_block_holds_four_n_by_kh_arrays_and_its_weights(self):
        # n = 1000, L = 10, H = 64 scores epochs 1-5 and 6-8 in two passes
        # (k = 1000 // 192 = 5). Against one epoch, a block adds at most its
        # four N x kH arrays (x0, alpha * x0, the layer input and its product),
        # no more than 4/3 of a_hat's bytes, and, for each epoch but the
        # last, a copy of the weights and the N x C logits
        bundle, g, idx = self.setup(1000)
        n, layers, hidden = 1000, 10, 64
        a_hat, stats = normalize_adjacency(g), presample(n, runs=30, budget=100, seed=9)
        peaks = {}
        for epochs in (1, 8):
            cfg = TrainConfig(max_epochs=epochs, patience=epochs, layers=layers,
                              hidden_dim=hidden, seed=9, batch_budget=100, sampler_runs=30)
            peaks[epochs], (params, history, _) = peak_bytes(
                train, cfg, a_hat, stats, bundle.features, bundle.labels, idx[:900], idx[900:])
            assert len(history) == epochs
        k = n // (3 * hidden)
        weights = sum(m.nbytes for m in params.matrices())
        assert 4 * n * k * hidden * 8 <= 4 / 3 * a_hat.nbytes
        assert peaks[8] - peaks[1] <= 4 * n * k * hidden * 8 + (k - 1) * (weights + n * 2 * 8)


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


    def test_a_block_names_the_epoch_the_loss_broke_in(self, monkeypatch):
        # n = 120, H = 16 scores epochs 3 and 4 in one pass: the NaN that
        # epoch 3's first step writes surfaces once that block is scored,
        # naming epoch 3, as when each epoch was scored alone
        bundle, g, idx = TestTrainTraceReuse.setup(120)
        steps = []
        real = training.adam_step

        def poisoned(state, grads, lr):
            real(state, grads, lr)
            steps.append(lr)
            if len(steps) == 7:   # 3 batches per epoch
                state.params.output_head[0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned)
        cfg = TrainConfig(max_epochs=6, patience=6, layers=2, hidden_dim=16, seed=9,
                          batch_budget=40, sampler_runs=30)
        stats = presample(120, runs=30, budget=40, seed=9)
        with pytest.raises(NonFiniteLoss, match="^epoch 3: train loss nan"):
            train(cfg, normalize_adjacency(g), stats, bundle.features, bundle.labels,
                  idx[:108], idx[108:])
        assert len(steps) == 12   # epoch 4 trained before its block was scored


class TestSampledInference:
    def test_half_budget_lands_near_full_batch(self):
        # gamma ~ 2 per edge at budget n/2; ten layers of it on the full
        # graph would saturate the softmax, so validation and test must
        # use unit aggregation
        bundle = generate_synthetic(
            SyntheticSpec(n_subjects=60, n_roi=10, class_separation=3.0, seed=0)
        )
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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
        g = build_adjacency(bundle.features, bundle.phenotypes)[0]
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

    def test_without_thread_symbols_folds_train_in_process(self, monkeypatch, tmp_path):
        # as under a numpy built on MKL or Accelerate: no OpenBLAS beside numpy,
        # so no pin, and the folds train here. The outer pin, taken while the
        # real library is still found, holds BLAS at one thread for the bits
        bundle, g, _ = TestTrainTraceReuse.setup()
        a_hat = normalize_adjacency(g)
        self.use_workers(monkeypatch, 2)
        forked = cross_validate(self.CFG, a_hat, None, bundle.features, bundle.labels)
        in_process = self.in_process_folds(monkeypatch)
        (tmp_path / "numpy.libs").mkdir()
        with training.blas_pin():
            training._blas_thread_api.cache_clear()
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
                    assert training._blas_thread_api() is None
                    with training.blas_pin() as api:
                        assert api is None
                    serial = cross_validate(self.CFG, a_hat, None, bundle.features,
                                            bundle.labels)
            finally:
                training._blas_thread_api.cache_clear()
        assert in_process == [0, 1, 2]
        self.assert_same_results(forked, serial)

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


KERNEL_NAME = """
import ctypes, pathlib, numpy
for path in sorted((pathlib.Path(numpy.__file__).resolve().parent.parent
                    / "numpy.libs").glob("*openblas*")):
    name = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.restype = ctypes.c_char_p
        print(name().decode())
"""


def test_the_reference_comparisons_pass_on_a_second_openblas_kernel(tmp_path):
    # another kernel sums each GEMM in another order, so the bits move; the
    # comparisons run both sides on the same kernel and must still pass
    root = Path(__file__).resolve().parents[1]

    def run(args, kernel=None):
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=300)

    default = run(["-c", KERNEL_NAME]).stdout.strip()
    if not default:
        pytest.skip("numpy's OpenBLAS does not name its kernel")
    kernel = "Haswell" if default == "Sandybridge" else "Sandybridge"
    if run(["-c", KERNEL_NAME], kernel).stdout.strip() != kernel:
        pytest.skip(f"OpenBLAS does not run its {kernel} kernel here")
    result = run(["-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path}",
                  "tests/test_training.py", "tests/test_cli.py",
                  "-k", "the_reference_without or bytes_are_pinned or median_sigma_is_pinned"
                        " or power_path_matches or signed_operator_histories"
                        " or asymmetric_operator_histories"],
                 kernel)
    assert result.returncode == 0, result.stdout[-3000:]
    assert result.stdout.splitlines()[-1].startswith("26 passed")
