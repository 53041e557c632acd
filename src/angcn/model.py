"""Forward computation of the aggregator-normalized GCN.

Each hidden layer mixes four terms: the neighborhood diffusion s = M h of the
current features, the same diffusion passed through an identity-plus-weight
map, and skip connections that re-inject the projected input features both
directly and through the identity map:

    pre = (1 - alpha) * s  +  beta * s (I + W)
        +      alpha  * x0 +  beta * x0 (I + W),      s = M h

followed by ReLU. A term whose coefficient is exactly 0 is never computed:
at alpha = beta = 0 (the plain GCN) a layer is one N x N product and no
H x H products. M is the propagation operator the caller passes in: the
normalized adjacency a_hat = normalize_adjacency(a) for full-graph forwards
and full-batch training, or a_hat * gamma restricted to a sampled subgraph
during minibatch training; each command forms a_hat once, in place of a,
and every fold of every cross-validation it runs shares it. Widths are
constant across layers (the identity map needs square weights), so a learned
projection maps raw inputs to the hidden width once, and a linear head maps
the last layer to class scores.

A forward forms alpha * x0 once and each layer's identity map I + W once.
The trace keeps each layer's activation and, at beta != 0, its diffusion s
and I + W, so the backward pass never repeats an N x N product or rebuilds
I + W. `forward_logits` runs one layer loop for one weight set or several,
with one N x N product per layer; without a trace, which only scores, it
keeps none of them, and each layer's ReLU overwrites its product.
`pre` is accumulated in place in the order written above, so skipping a
zero term changes no bit of the result (save the sign of an exact zero, and
NaN from 0 * inf), and neither does skipping a temporary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch


def check_coefficient(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a real number in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


@dataclass
class ModelParams:
    input_projection: np.ndarray          # F_in x F_hidden
    layers: list[np.ndarray]              # each F_hidden x F_hidden
    output_head: np.ndarray               # F_hidden x C
    alpha: float
    beta: float

    def __post_init__(self):
        check_coefficient("alpha", self.alpha)
        check_coefficient("beta", self.beta)
        h = self.input_projection.shape[1]
        for ell, w in enumerate(self.layers):
            if w.shape != (h, h):
                raise ShapeMismatch(
                    f"layer {ell} weight is {w.shape}, expected square ({h}, {h})"
                )
        if self.output_head.shape[0] != h:
            raise ShapeMismatch(
                f"output head rows {self.output_head.shape[0]} != hidden width {h}"
            )

    def matrices(self) -> list[np.ndarray]:
        """Every weight matrix in the one fixed order: projection, layers, head."""
        return [self.input_projection, *self.layers, self.output_head]

    def copy(self) -> "ModelParams":
        return ModelParams(self.input_projection.copy(), [w.copy() for w in self.layers],
                           self.output_head.copy(), self.alpha, self.beta)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached layer by layer.

    activations[l] is the layer output; its positive entries are exactly
    those of the pre-activation, which is all the ReLU derivative needs.
    diffused[l] is the layer's diffusion s = op @ h_(l-1) and identity_maps[l]
    the layer's I + W as the forward formed it, which the weight gradient
    beta (s + x0).T g and the term beta g (I + W).T read instead of
    recomputing them. Both are empty at beta = 0, where no term reads them:
    a plain-GCN trace holds x0 and the L activations alone.
    """

    raw_input: np.ndarray
    projected_input: np.ndarray
    diffused: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    identity_maps: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(
    f_in: int,
    f_hidden: int,
    n_classes: int,
    n_layers: int,
    alpha: float,
    beta: float,
    rng: np.random.Generator,
) -> ModelParams:
    """Seeded uniform Glorot initialization for every weight matrix."""
    projection = glorot(f_in, f_hidden, rng)
    layers = [glorot(f_hidden, f_hidden, rng) for _ in range(n_layers)]
    return ModelParams(projection, layers, glorot(f_hidden, n_classes, rng), alpha, beta)


def layer_forward(
    s: np.ndarray,
    x0: np.ndarray,
    alpha: float,
    beta: float,
    iw: np.ndarray | None,
    alpha_x0: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One propagation layer's ReLU output from its diffusion s = op @ h.

    The caller forms `iw` = I + W (read only at beta != 0) and `alpha_x0` =
    alpha * x0 (read only at alpha != 0): a forward forms each once. Terms
    with a zero coefficient are skipped, so at alpha = beta = 0 the output is
    exactly ReLU(s), the plain GCN layer, and no other array is made.
    Otherwise s (I + W) and x0 (I + W) share one N x H buffer, each scaled by
    beta in place before it is added to `pre`. The output goes to `out` if
    given, which may be s itself: s is read in full before it is written.
    """
    if s.shape != x0.shape:
        raise ShapeMismatch(f"s {s.shape} and x0 {x0.shape} must match")
    if not (alpha or beta):
        return np.maximum(s, 0.0, out=out)
    pre = (1.0 - alpha) * s
    if beta:
        term = np.matmul(s, iw)
        term *= beta
        pre += term
    if alpha:
        pre += alpha_x0
    if beta:
        np.matmul(x0, iw, out=term)
        term *= beta
        pre += term
    return np.maximum(pre, 0.0, out=pre if out is None else out)


def forward(params: ModelParams, op: np.ndarray, x_raw: np.ndarray) -> ForwardTrace:
    """Full forward pass over the N x N operator op: project, L propagation
    layers, linear head, traced for the backward pass."""
    trace = ForwardTrace(raw_input=None, projected_input=None)   # filled in as it runs
    [trace.logits] = forward_logits([params], op, x_raw, trace)
    return trace


def forward_logits(param_sets: Sequence[ModelParams], op: np.ndarray, x_raw: np.ndarray,
                   trace: ForwardTrace | None = None) -> list[np.ndarray]:
    """The logits of the forward pass of each weight set in `param_sets`, in
    order; the sets must share alpha, beta and every shape (ShapeMismatch).

    Each layer multiplies op once by the N x kH matrix [h_1 ... h_k] of the k
    sets' inputs and applies layer_forward to each set's H-column block of
    the product, in the same order as a pass of its own. Where such a block
    of the wide product is the bits of op @ h_i (for OpenBLAS, H a multiple
    of 16), each set's logits are the bits of its own pass. Into `trace`, if
    given (one set only), goes what the backward pass reads (at beta = 0 the
    activations alone), and each ReLU output is a new array. Without a trace,
    for one set as for many, each layer's ReLU output overwrites its block of
    the product, so the pass holds four N x kH arrays at most (x0, alpha * x0,
    the layer input and its product; three at alpha = beta = 0), and no
    layer's arrays outlive the next.
    """
    first, k = param_sets[0], len(param_sets)
    x_raw = np.asarray(x_raw, dtype=float)
    if x_raw.shape[1] != first.input_projection.shape[0]:
        raise ShapeMismatch(
            f"input width {x_raw.shape[1]} != projection rows "
            f"{first.input_projection.shape[0]}"
        )
    if np.shape(op) != (x_raw.shape[0], x_raw.shape[0]):
        raise ShapeMismatch(f"operator {np.shape(op)} does not match {x_raw.shape[0]} input rows")
    if trace is not None and k > 1:
        raise ValueError(f"a trace records one weight set, got {k}")
    shapes = [m.shape for m in first.matrices()]
    if any((p.alpha, p.beta) != (first.alpha, first.beta)
           or [m.shape for m in p.matrices()] != shapes for p in param_sets[1:]):
        raise ShapeMismatch("weight sets scored together must share alpha, beta and shapes")
    alpha, beta = first.alpha, first.beta
    width = first.input_projection.shape[1]
    blocks = [slice(i * width, (i + 1) * width) for i in range(k)]
    x0s = [x_raw @ p.input_projection for p in param_sets]
    alpha_x0s = [alpha * x0 for x0 in x0s] if alpha else [None] * k
    h = x0s[0] if k == 1 else np.hstack(x0s)
    if trace is not None:
        trace.raw_input, trace.projected_input = x_raw, x0s[0]
    for ell, w in enumerate(first.layers):
        if w.shape != (width, width):
            raise ShapeMismatch(f"layer {ell}: weight {w.shape} incompatible with width {width}")
        s = op @ h
        # untraced, each ReLU output overwrites its block of s, the next layer's
        # input; traced, it is a new array, apart from the s the trace keeps
        for p, b, x0, alpha_x0 in zip(param_sets, blocks, x0s, alpha_x0s):
            iw = np.eye(width) + p.layers[ell] if beta else None
            h = layer_forward(s[:, b], x0, alpha, beta, iw, alpha_x0,
                              out=s[:, b] if trace is None else None)
        if trace is None:
            h = s
        else:
            trace.activations.append(h)
            if beta:
                trace.diffused.append(s)
                trace.identity_maps.append(iw)
        del s   # else it would live on through the next layer's product
    return [h[:, b] @ p.output_head for p, b in zip(param_sets, blocks)]


def predict(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
