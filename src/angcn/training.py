"""Loss, exact reverse-mode gradients, Adam, early stopping, and k-fold CV.

The backward pass differentiates the four-term propagation rule by hand;
a central finite-difference harness validates it entry by entry. The loss
is a sum over labeled nodes (a mean variant is available as a config flag),
read off the logits wherever the softmax underflows. Backward reads each
layer's diffusion and I + W from the forward trace, so a step costs two
N x N products per layer: op @ h forward and op.T @ d_s backward, which
full-batch steps take as a_hat @ d_s, the same bits, since a_hat is
exactly symmetric. Both passes skip every term whose coefficient is 0, so
at alpha = beta = 0 a layer does no H x H product either way, and at
beta = 0 Adam leaves the layer weights, which get no gradient, untouched.
Each fold computes every product once: its test probabilities are the best
epoch's scoring pass. Sampled training scores several epochs' weights in
one full-graph pass, with the same bits and the same epochs trained as a
pass per epoch. Every fold of a `cross_validate` call shares the caller's
a_hat. It holds OpenBLAS at one thread, where its thread-count
symbols exist, and trains the folds in forked worker processes, one per
usable CPU, which inherit the arrays and that one thread. A single worker,
a platform without `fork` or without those symbols, or a caller running
other threads trains them in this process instead, through the same
per-fold function. Results are the same bits for any worker count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ClassTooSmall, EmptyLabeledSet, NonFiniteLoss, ShapeMismatch, TraceMismatch
from .model import ForwardTrace, ModelParams, check_coefficient, forward, forward_logits
from .model import init_params, predict
from .sampler import aggregation_matrix, sample_node_subgraph


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 150
    patience: int = 10
    folds: int = 10
    alpha: float = 0.1
    beta: float = 0.3
    layers: int = 10
    hidden_dim: int = 64
    seed: int = 0
    batch_budget: int | None = None   # None = full-batch
    sampler_runs: int = 200
    loss_reduction: str = "sum"

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be a finite number > 0, got {lr!r}")
        check_coefficient("alpha", self.alpha)
        check_coefficient("beta", self.beta)
        for name, low in (("max_epochs", 0), ("patience", 1), ("folds", 2), ("layers", 0),
                          ("hidden_dim", 1), ("seed", 0), ("sampler_runs", 1),
                          ("batch_budget", 1)):
            value = getattr(self, name)
            if value is None and name == "batch_budget":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.loss_reduction not in ("sum", "mean"):
            raise ValueError(f"loss_reduction must be sum or mean, got {self.loss_reduction}")

    def full_batch(self, n: int) -> bool:
        """Whether training on n nodes takes whole-graph steps (unit gamma)."""
        return self.batch_budget is None or self.batch_budget >= n


# Share of each fold's training pool held out for early stopping.
VALIDATION_FRACTION = 0.1

# Adam's fixed hyperparameters (Kingma & Ba); only the learning rate is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam's moments, one per parameter matrix in `ModelParams.matrices()` order."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        mats = params.matrices()
        return cls([np.zeros_like(m) for m in mats], [np.zeros_like(m) for m in mats])


def cross_entropy(
    logits: np.ndarray,
    labels_onehot: np.ndarray,
    labeled_idx: Sequence[int],
    reduction: str = "sum",
) -> float:
    """Cross-entropy of the softmax of `logits` over the labeled rows:
    -sum_i sum_c Y_ic log Yhat_ic.

    log Yhat_ic is the log of the softmax probability; where that probability
    is below 1e-300 (the softmax underflows) it is the log-softmax
    z_ic - logsumexp(z_i) read off the logits instead, so the loss stays
    exact, finite and in step with `backward`'s gradient. `reduction` is
    "sum" or "mean" (ValueError otherwise).
    """
    if reduction not in ("sum", "mean"):
        raise ValueError(f"reduction must be sum or mean, got {reduction!r}")
    labeled = np.asarray(labeled_idx, dtype=int)
    if labeled.size == 0:
        raise EmptyLabeledSet("loss needs at least one labeled node")
    z = np.asarray(logits, dtype=float)[labeled]
    onehot = np.asarray(labels_onehot, dtype=float)[labeled]
    y_hat = predict(z)
    log_p = np.log(np.maximum(y_hat, 1e-300))
    low = y_hat < 1e-300
    if low.any():
        shifted = z - z.max(axis=1, keepdims=True)
        log_p[low] = (shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))[low]
    loss = -float(np.sum(onehot * log_p))
    if reduction == "mean":
        loss /= labeled.size
    return loss


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    op: np.ndarray,
    labels_onehot: np.ndarray,
    labeled_idx: Sequence[int],
    reduction: str = "sum",
    symmetric: bool = False,
) -> list[np.ndarray]:
    """Exact gradients of the cross-entropy through the full stack, one per
    parameter matrix in `ModelParams.matrices()` order.

    Softmax and cross-entropy fuse to (Yhat - Y) on labeled rows. Each layer
    contributes through the diffusion term, the identity-plus-weight term,
    and both skip terms, so the projected input collects gradient from every
    layer; as in the forward pass, a term whose coefficient is 0 is skipped.
    The ReLU derivative is read off the layer output (h > 0 exactly where
    pre > 0), so its subgradient at 0 is 0. Each layer forms
    beta * (g @ (I + W).T) once, from the I + W the trace holds. At beta = 0
    no layer weight gets a gradient: each of those entries is one read-only
    zero-stride view of 0.0, with no H x H array behind it, and the trace
    holds no diffusion, which only the weight gradient reads. A layer forms
    g and then d_s in the buffer of its incoming gradient, and s + x0 and
    the skip terms in buffers that every layer reuses; its only new N x H
    array is the product op.T @ d_s. `symmetric=True` promises that op
    equals op.T bit for bit, as normalize_adjacency's a_hat does: backward
    then multiplies by op itself, the same sums without the transposed read.
    `op` and `params` must be those the trace was computed with, and
    `reduction` is "sum" or "mean" (ValueError otherwise).
    """
    if reduction not in ("sum", "mean"):
        raise ValueError(f"reduction must be sum or mean, got {reduction!r}")
    n_layers = len(params.layers)
    if len(trace.activations) != n_layers:
        raise TraceMismatch(
            f"trace has {len(trace.activations)} layers, params have {n_layers}"
        )
    if trace.projected_input.shape[1] != params.input_projection.shape[1]:
        raise TraceMismatch("trace hidden width disagrees with the projection")
    if len(trace.identity_maps) != (n_layers if params.beta else 0):
        raise TraceMismatch(
            f"trace has {len(trace.identity_maps)} identity maps for {n_layers} layers "
            f"at beta {params.beta}"
        )
    labeled = np.asarray(labeled_idx, dtype=int)
    if labeled.size == 0:
        raise EmptyLabeledSet("gradients need at least one labeled node")

    y_hat = predict(trace.logits)
    d_logits = np.zeros_like(y_hat)
    d_logits[labeled] = y_hat[labeled] - np.asarray(labels_onehot, dtype=float)[labeled]
    if reduction == "mean":
        d_logits /= labeled.size

    x0 = trace.projected_input
    h_last = trace.activations[-1] if n_layers else x0
    d_head = h_last.T @ d_logits
    d_h = d_logits @ params.output_head.T

    width = x0.shape[1]
    d_layers = [np.broadcast_to(0.0, (width, width))] * n_layers
    d_x0 = np.zeros_like(x0)
    alpha, beta = params.alpha, params.beta
    op_t = op if symmetric else op.T
    if beta:  # buffers that every layer reuses
        s_x0, g_iw, skip = np.empty_like(x0), np.empty_like(x0), np.empty_like(x0)
    for ell in range(n_layers - 1, -1, -1):
        g = np.multiply(d_h, trace.activations[ell] > 0, out=d_h)
        if beta:
            d_layers[ell] = np.add(trace.diffused[ell], x0, out=s_x0).T @ g
            d_layers[ell] *= beta
            np.matmul(g, trace.identity_maps[ell].T, out=g_iw)
            g_iw *= beta
            np.multiply(alpha, g, out=skip)
            skip += g_iw
            d_x0 += skip
        elif alpha:
            d_x0 += alpha * g
        if alpha:  # d_s = (1 - alpha) g + beta g (I + W)^T, formed in g's buffer
            g *= 1.0 - alpha
        if beta:
            g += g_iw
        d_h = op_t @ g
    d_x0 += d_h  # H^(0) = x0
    return [trace.raw_input.T @ d_x0, *d_layers, d_head]


def adam_step(
    params: ModelParams,
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place;
    `grads` holds one gradient per matrix in `ModelParams.matrices()` order.

    A matrix whose gradient and both moments are exactly 0 (a layer weight at
    beta = 0) is skipped: its update would leave every bit as it is."""
    mats = params.matrices()
    if len(mats) != len(grads) or any(m.shape != g.shape for m, g in zip(mats, grads)):
        raise ShapeMismatch("gradient shapes do not mirror parameter shapes")
    state.t += 1
    c1, c2 = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
    for theta, g, m, v in zip(mats, grads, state.first_moment, state.second_moment):
        if not (g.any() or m.any() or v.any()):
            continue
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as np.unique returns them, from
    a sort and a mask: plain np.unique imports numpy.ma (numpy 2.4)."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def stratified_kfold(labels: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """k disjoint folds covering all indices, class proportions off by <= 1;
    the classes are taken in ascending order (`_distinct`)."""
    labels = np.asarray(labels, dtype=int)
    folds: list[list[int]] = [[] for _ in range(k)]
    rng = np.random.default_rng([seed, 11])
    for cls in _distinct(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ClassTooSmall(f"class {cls} has {idx.size} members, needs >= {k}")
        idx = rng.permutation(idx)
        for f in range(k):
            folds[f].extend(int(v) for v in idx[f::k])
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def stratified_holdout(
    labels: Sequence[int], pool: np.ndarray, frac: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split `pool` into (rest, held-out) keeping at least one of each class
    held out; both come back sorted, and `rest` holds each index once, as
    np.setdiff1d returns it (formed by `_distinct` and np.isin)."""
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng([seed, 13])
    held: list[int] = []
    for cls in _distinct(labels[pool]):
        idx = pool[labels[pool] == cls]
        take = max(1, int(round(frac * idx.size)))
        held.extend(int(v) for v in rng.permutation(idx)[:take])
    held_arr = np.sort(np.array(held, dtype=int))
    rest = _distinct(pool[~np.isin(pool, held_arr)])
    return rest, held_arr


class EarlyStopper:
    """Stops after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


def one_hot(labels: Sequence[int]) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.size, max(int(labels.max()) + 1, 2)))
    out[np.arange(labels.size), labels] = 1.0
    return out


def train(
    config: TrainConfig,
    a_hat: np.ndarray,
    s: np.ndarray | None,
    features: np.ndarray,
    labels: Sequence[int],
    train_idx: np.ndarray,
    val_idx: np.ndarray,
) -> tuple[ModelParams, list[tuple[int, float, float]], np.ndarray]:
    """Fit the model; returns (best-validation-epoch params, per-epoch
    history, those params' full-graph logits).

    History rows are (epoch, train_loss, val_loss) recorded at the end of
    each epoch. Training stops early once the validation loss has failed to
    improve on its best value for `patience` consecutive epochs, and the
    parameters from the best epoch are returned. A non-finite loss raises
    NonFiniteLoss naming the epoch.

    The end-of-epoch losses score the full graph with `a_hat` (unit
    aggregation), and the logits returned are the best epoch's scoring pass,
    kept, not run again (with no epochs, the initial params are scored once).
    A minibatch b steps on a_hat[b, b] * aggregation_matrix(s, b), whose
    gamma, from the sampler's runs x n membership S, debiases
    subgraph-restricted aggregation (unit gamma for s None), so sampled
    epochs score with no trace. They score in blocks: each epoch's weights
    are kept, and one forward_logits call scores k epochs,
    k = min(block cap, patience - stale epochs, epochs left), where the block
    cap is n // 3H for a hidden width H that is a multiple of 16, else 1. So
    the block's four N x kH arrays stay within 4/3 of a_hat's bytes, early
    stopping can fire only on a block's last epoch, and every epoch trained
    is one that scoring epoch by epoch would train; a NonFiniteLoss surfaces
    once its block is scored, naming the same epoch. Full batch
    (`config.full_batch(n)`) restricts nothing, so it takes no S; its block
    cap is 1, and each epoch is scored by a traced `forward` that is also the
    next epoch's training forward. Its backward multiplies by a_hat
    untransposed (`symmetric=True`), so a_hat must be exactly symmetric, as
    normalize_adjacency returns it; sampled steps multiply by step_op.T,
    since a_hat[b, b] * gamma is not symmetric.

    `train` runs at the caller's BLAS thread count, and its bits depend on
    that count: at n = 400, L = 3 and H = 16 or 64, each of the 8 sampled
    runs of the blocked-history digest test returns another history or other
    logits at two OpenBLAS threads than at one. `cross_validate` holds
    OpenBLAS at one thread for its folds.
    """
    train_idx = np.asarray(train_idx, dtype=int)
    val_idx = np.asarray(val_idx, dtype=int)
    if np.isin(train_idx, val_idx).any():
        raise ValueError("train and validation index sets must be disjoint")
    features = np.asarray(features, dtype=float)
    labels_oh = one_hot(labels)
    n = a_hat.shape[0]
    full_batch = config.full_batch(n)
    if full_batch and s is not None:
        raise ValueError("full-batch training needs unit gamma (no sampler statistics)")

    rng = np.random.default_rng([config.seed, 0])
    params = init_params(features.shape[1], config.hidden_dim, labels_oh.shape[1],
                         config.layers, config.alpha, config.beta, rng)
    state = AdamState.for_params(params)
    stopper = EarlyStopper(config.patience)
    best_params = params.copy()  # a copy: adam_step updates params in place
    history: list[tuple[int, float, float]] = []
    if config.max_epochs == 0:
        return best_params, history, forward_logits([params], a_hat, features)[0]

    train_mask = np.isin(np.arange(n), train_idx)

    def steps(epoch: int):
        """(operator, features, labels, labeled rows) of each gradient step."""
        if full_batch:
            yield a_hat, features, labels_oh, train_idx
            return
        for b in range(-(-n // config.batch_budget)):  # ceil(n / budget) batches
            batch = sample_node_subgraph(
                n, config.batch_budget, np.random.default_rng([config.seed, 2, epoch, b])
            )
            labeled_local = np.flatnonzero(train_mask[batch])
            if labeled_local.size:
                step_op = a_hat[np.ix_(batch, batch)]
                if s is not None:
                    step_op *= aggregation_matrix(s, batch)
                yield step_op, features[batch], labels_oh[batch], labeled_local

    trace = forward(params, a_hat, features) if full_batch else None
    # a column block of a_hat @ [h_1 ... h_k] is the bits of a_hat @ h_i for
    # widths of whole 16-column panels (OpenBLAS), not for H = 5 or 33
    block_cap = 1 if full_batch or config.hidden_dim % 16 else max(1, n // (3 * config.hidden_dim))
    done = 0
    while done < config.max_epochs:
        k = min(block_cap, config.patience - stopper.stale, config.max_epochs - done)
        epochs = range(done + 1, done + k + 1)
        weights = []  # each epoch's params, scored together once the block is trained
        for epoch in epochs:
            for step_op, x, y, labeled in steps(epoch):
                if trace is None:
                    trace = forward(params, step_op, x)
                grads = backward(trace, params, step_op, y, labeled, config.loss_reduction,
                                 symmetric=full_batch)
                trace = None  # release it before the next forward: one trace live at a time
                adam_step(params, grads, state, config.learning_rate)
            weights.append(params.copy() if epoch < epochs[-1] else params)
        if full_batch:
            trace = forward(params, a_hat, features)
            scores = [trace.logits]
        else:
            scores = forward_logits(weights, a_hat, features)
        for epoch, scored, logits in zip(epochs, weights, scores):
            train_loss = cross_entropy(logits, labels_oh, train_idx, config.loss_reduction)
            val_loss = cross_entropy(logits, labels_oh, val_idx, config.loss_reduction)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NonFiniteLoss(
                    f"epoch {epoch}: train loss {train_loss}, validation loss {val_loss}"
                )
            history.append((epoch, train_loss, val_loss))
            should_stop = stopper.update(epoch, val_loss)
            if stopper.best_epoch == epoch:
                best_params, best_logits = scored.copy(), logits
            if should_stop:
                return best_params, history, best_logits
        done += k
    return best_params, history, best_logits


def finite_difference_check(
    params: ModelParams,
    op: np.ndarray,
    x_raw: np.ndarray,
    labels_onehot: np.ndarray,
    labeled_idx: Sequence[int],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every parameter entry by eps * max(1, |theta|) in both
    directions; the relative error denominator is floored at 1e-8. A
    non-finite entry error (a NaN weight or loss) makes the result NaN, which
    no tolerance accepts.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite number > 0, got {eps}")

    def loss_of(p: ModelParams) -> float:
        return cross_entropy(forward_logits([p], op, x_raw)[0], labels_onehot, labeled_idx)

    trace = forward(params, op, x_raw)
    grads = backward(trace, params, op, labels_onehot, labeled_idx)
    worst = 0.0
    work = params.copy()
    for mat, grad in zip(work.matrices(), grads):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            theta = mat[ix]
            step = eps * max(1.0, abs(theta))
            mat[ix] = theta + step
            hi = loss_of(work)
            mat[ix] = theta - step
            lo = loss_of(work)
            mat[ix] = theta
            numeric = (hi - lo) / (2.0 * step)
            analytic = grad[ix]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = np.maximum(worst, abs(analytic - numeric) / denom)  # keeps a NaN
    return float(worst)


@dataclass
class FoldResult:
    fold: int
    test_idx: np.ndarray
    probs: np.ndarray            # test rows of the softmax output
    history: list[tuple[int, float, float]]
    params: ModelParams


def fold_workers(folds: int) -> int:
    """How many folds `cross_validate` trains at once: one per usable CPU,
    at most one per fold."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, folds))


@functools.cache
def _blas_thread_api():
    """OpenBLAS's (get, set) thread-count functions in the library numpy
    loaded, or None where numpy bundles no OpenBLAS that exports them."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


def _train_fold(shared: tuple, task: tuple) -> FoldResult:
    """Train fold `task` = (fold, config, test_idx, train_idx, val_idx) on the
    shared (a_hat, s, features, labels); the config carries the fold's seed.
    The test probabilities are the softmax of the logits `train` returns, from
    its best epoch's scoring pass: the fold runs no full-graph pass for them."""
    a_hat, s, features, labels = shared
    fold, config, test_idx, train_idx, val_idx = task
    try:
        params, history, logits = train(config, a_hat, s, features, labels,
                                        train_idx, val_idx)
    except NonFiniteLoss as exc:
        raise NonFiniteLoss(f"fold {fold}, {exc}") from exc
    return FoldResult(fold, test_idx, predict(logits)[test_idx], history, params)


_worker_shared: tuple | None = None  # the arrays forked workers train on, set only while they run
_pin_lock = threading.Lock()
_pin = [0, None]  # calls inside _train_folds, and the thread count the outermost one saved


def _train_fold_in_worker(task: tuple) -> FoldResult:
    return _train_fold(_worker_shared, task)


def _train_folds(shared: tuple, tasks: list[tuple]) -> list[FoldResult]:
    """Every task's FoldResult, in task order, trained with one BLAS thread
    per fold: in forked workers when more than one is worth starting."""
    global _worker_shared
    api = _blas_thread_api()
    with _pin_lock:  # the outermost call pins one thread, which forked workers inherit
        _pin[0] += 1
        if api and _pin[0] == 1:
            _pin[1] = api[0]()
            api[1](1)
    try:
        import multiprocessing  # here: importing the CLI loads no pool machinery
        # fork copies only this thread: a lock another thread holds would stay
        # locked in the worker, so a caller running threads trains in-process.
        workers = fold_workers(len(tasks)) if api else 1
        if (workers > 1 and threading.active_count() == 1
                and "fork" in multiprocessing.get_all_start_methods()):
            from concurrent.futures import ProcessPoolExecutor

            # Forked workers inherit `shared` copy-on-write: nothing N x N is pickled.
            _worker_shared = shared
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_train_fold_in_worker, tasks))
        return [_train_fold(shared, task) for task in tasks]
    finally:
        _worker_shared = None
        with _pin_lock:  # the last call out restores the saved count
            _pin[0] -= 1
            if api and _pin[0] == 0:
                api[1](_pin[1])


def cross_validate(
    config: TrainConfig,
    a_hat: np.ndarray,
    s: np.ndarray | None,
    features: np.ndarray,
    labels: Sequence[int],
) -> list[FoldResult]:
    """Stratified k-fold evaluation; each fold trains on the rest with an
    inner stratified validation split for early stopping.

    `s` is None for unit aggregation (full batch, plain GCN) or presample's
    membership S of the graph's nodes (ShapeMismatch otherwise), from
    which each minibatch of sampled training forms its gamma. Every fold
    shares `a_hat`, normalize_adjacency's operator, and none changes it, so a
    sweep forms it once for all its calls. The splits and the fold seeds are
    built once here; the folds then train as the module docstring says, and
    the results come back in fold order. The folds train at one OpenBLAS
    thread, where its thread-count symbols exist, whatever the caller's
    count, which is restored when the last of any concurrent calls ends, on
    error too. Test
    probabilities come from the full-graph scoring pass with unit aggregation
    (a_hat) of each fold's best epoch. A non-finite loss raises NonFiniteLoss naming the fold and
    epoch; an error in any fold reaches the caller, the earliest failing
    fold's first."""
    labels = np.asarray(labels, dtype=int)
    n = len(a_hat)
    if s is not None and s.shape[1] != n:
        raise ShapeMismatch(f"stats cover {s.shape[1]} nodes, the graph {n}")
    tasks = []
    for f, test_idx in enumerate(stratified_kfold(labels, config.folds, config.seed)):
        pool = np.flatnonzero(~np.isin(np.arange(n), test_idx))
        fold_seed = int(np.random.SeedSequence([config.seed, 17, f]).generate_state(1)[0])
        tr_idx, val_idx = stratified_holdout(labels, pool, VALIDATION_FRACTION, fold_seed)
        tasks.append((f, replace(config, seed=fold_seed), test_idx, tr_idx, val_idx))
    return _train_folds((a_hat, s, features, labels), tasks)
