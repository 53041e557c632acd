"""Forward computation of the aggregator-normalized GCN.

Each hidden layer mixes four terms: the (aggregation-weighted) neighborhood
diffusion of the current features, the same diffusion passed through an
identity-plus-weight map, and skip connections that re-inject the projected
input features both directly and through the identity map:

    pre = (1 - alpha) * M h  +  beta * M h (I + W)
        +      alpha  * x0  +  beta * x0 (I + W),      M = a_hat * gamma

followed by ReLU. Widths are constant across layers (the identity map needs
square weights), so a learned projection maps raw inputs to the hidden width
once, and a linear head maps the last layer to class scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .graph_core import hadamard, matmul


@dataclass
class ModelParams:
    input_projection: np.ndarray          # F_in x F_hidden
    layers: list[np.ndarray]              # each F_hidden x F_hidden
    output_head: np.ndarray               # F_hidden x C
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
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

    def copy(self) -> "ModelParams":
        return ModelParams(
            input_projection=self.input_projection.copy(),
            layers=[w.copy() for w in self.layers],
            output_head=self.output_head.copy(),
            alpha=self.alpha,
            beta=self.beta,
        )


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached layer by layer."""

    raw_input: np.ndarray
    projected_input: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
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
    return ModelParams(
        input_projection=glorot(f_in, f_hidden, rng),
        layers=[glorot(f_hidden, f_hidden, rng) for _ in range(n_layers)],
        output_head=glorot(f_hidden, n_classes, rng),
        alpha=alpha,
        beta=beta,
    )


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return relu(x)
    if activation == "identity":  # test hook for kink-free gradient checks
        return x.copy()
    raise ValueError(f"unknown activation {activation!r}")


def layer_forward(
    h: np.ndarray,
    x0: np.ndarray,
    diffused_op: np.ndarray,
    w: np.ndarray,
    alpha: float,
    beta: float,
    activation: str = "relu",
) -> tuple[np.ndarray, np.ndarray]:
    """One propagation layer; returns (pre_activation, activation).

    diffused_op is the fixed N x N operator a_hat * gamma. All four terms
    are always computed, so alpha = beta = 0 reduces exactly to the plain
    diffusion diffused_op @ h.
    """
    if h.shape != x0.shape:
        raise ShapeMismatch(f"h {h.shape} and x0 {x0.shape} must match")
    if w.shape != (h.shape[1], h.shape[1]):
        raise ShapeMismatch(f"weight {w.shape} incompatible with width {h.shape[1]}")
    s = matmul(diffused_op, h)
    iw = np.eye(w.shape[0]) + w
    pre = (1.0 - alpha) * s + beta * (s @ iw) + alpha * x0 + beta * (x0 @ iw)
    return pre, _activate(pre, activation)


def forward(
    params: ModelParams,
    a_hat: np.ndarray,
    gamma: np.ndarray,
    x_raw: np.ndarray,
    activation: str = "relu",
) -> ForwardTrace:
    """Full forward pass: project, L propagation layers, linear head."""
    x_raw = np.asarray(x_raw, dtype=float)
    if x_raw.shape[1] != params.input_projection.shape[0]:
        raise ShapeMismatch(
            f"input width {x_raw.shape[1]} != projection rows "
            f"{params.input_projection.shape[0]}"
        )
    op = hadamard(a_hat, gamma)
    x0 = matmul(x_raw, params.input_projection)
    trace = ForwardTrace(raw_input=x_raw, projected_input=x0)
    h = x0
    for ell, w in enumerate(params.layers):
        try:
            pre, h = layer_forward(h, x0, op, w, params.alpha, params.beta, activation)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"layer {ell}: {exc}") from exc
        trace.pre_activations.append(pre)
        trace.activations.append(h)
    trace.logits = matmul(h, params.output_head)
    return trace


def predict(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
