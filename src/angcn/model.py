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
I + W; `forward_logits` without a trace, which only scores, keeps none of
them. `pre` is accumulated in place in the order written above, so skipping
a zero term changes no bit of the result (save the sign of an exact zero,
and NaN from 0 * inf), and neither does skipping a temporary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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
    h: np.ndarray,
    x0: np.ndarray,
    op: np.ndarray,
    w: np.ndarray,
    alpha: float,
    beta: float,
    iw: np.ndarray | None = None,
    alpha_x0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One propagation layer; returns (diffusion op @ h, ReLU output).

    `iw` = I + W and `alpha_x0` = alpha * x0 are formed here unless the
    caller passes them: a forward forms each once. Terms with a zero
    coefficient are skipped, so at alpha = beta = 0 the output is exactly
    ReLU(op @ h), the plain GCN layer, and no array but those two is made.
    Otherwise s (I + W) and x0 (I + W) share one N x H buffer, each scaled by
    beta in place before it is added to `pre`.
    """
    if h.shape != x0.shape:
        raise ShapeMismatch(f"h {h.shape} and x0 {x0.shape} must match")
    if w.shape != (h.shape[1], h.shape[1]):
        raise ShapeMismatch(f"weight {w.shape} incompatible with width {h.shape[1]}")
    s = op @ h
    if not (alpha or beta):
        return s, np.maximum(s, 0.0)
    pre = (1.0 - alpha) * s
    if beta:
        if iw is None:
            iw = np.eye(len(w)) + w
        term = np.matmul(s, iw)
        term *= beta
        pre += term
    if alpha:
        pre += alpha * x0 if alpha_x0 is None else alpha_x0
    if beta:
        np.matmul(x0, iw, out=term)
        term *= beta
        pre += term
    np.maximum(pre, 0.0, out=pre)
    return s, pre


def forward(params: ModelParams, op: np.ndarray, x_raw: np.ndarray) -> ForwardTrace:
    """Full forward pass over the N x N operator op: project, L propagation
    layers, linear head, traced for the backward pass."""
    trace = ForwardTrace(raw_input=None, projected_input=None)   # filled in as it runs
    trace.logits = forward_logits(params, op, x_raw, trace)
    return trace


def forward_logits(params: ModelParams, op: np.ndarray, x_raw: np.ndarray,
                   trace: ForwardTrace | None = None) -> np.ndarray:
    """The logits of the forward pass. Into `trace`, if given, goes what the
    backward pass reads (at beta = 0 the activations alone); without one, a
    layer's arrays are dropped once the next layer has read them, and the
    logits are the same bits."""
    x_raw = np.asarray(x_raw, dtype=float)
    if x_raw.shape[1] != params.input_projection.shape[0]:
        raise ShapeMismatch(
            f"input width {x_raw.shape[1]} != projection rows "
            f"{params.input_projection.shape[0]}"
        )
    if np.shape(op) != (x_raw.shape[0], x_raw.shape[0]):
        raise ShapeMismatch(f"operator {np.shape(op)} does not match {x_raw.shape[0]} input rows")
    alpha, beta = params.alpha, params.beta
    h = x0 = x_raw @ params.input_projection
    alpha_x0 = alpha * x0 if alpha else None
    if trace is not None:
        trace.raw_input, trace.projected_input = x_raw, x0
    for ell, w in enumerate(params.layers):
        iw = np.eye(len(w)) + w if beta else None
        try:
            s, h = layer_forward(h, x0, op, w, alpha, beta, iw, alpha_x0)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"layer {ell}: {exc}") from exc
        if trace is not None:
            trace.activations.append(h)
            if beta:
                trace.diffused.append(s)
                trace.identity_maps.append(iw)
    return h @ params.output_head


def predict(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
