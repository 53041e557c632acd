"""Binary classification metrics: confusion counts, six scalar scores, and
threshold-sweep ROC / precision-recall curves.

Class 1 is the positive class throughout. Metrics whose denominator is zero
come back as 0.0 and are listed under the "degenerate" key so reports can
flag them instead of silently mixing conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NoPositives, SingleClass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class CurvePoints:
    kind: str                         # "roc" or "pr"
    points: tuple[tuple[float, float], ...]
    area: float


def confusion(y_true, y_pred) -> ConfusionCounts:
    """2x2 confusion counts for binary labels."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"lengths differ: {y_true.shape} vs {y_pred.shape}")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def scalar_metrics(c: ConfusionCounts) -> dict:
    """Accuracy, recall, precision, F1, MCC and kappa from one confusion table.

    Returns the six values plus a "degenerate" tuple naming any metric whose
    denominator was zero (reported as 0.0).
    """
    if c.total <= 0:
        raise ValueError("confusion counts are empty")
    tp, fp, tn, fn = float(c.tp), float(c.fp), float(c.tn), float(c.fn)
    degenerate = []

    def guarded(name: str, numerator: float, denominator: float) -> float:
        if denominator == 0.0:
            degenerate.append(name)
            return 0.0
        return numerator / denominator

    accuracy = (tp + tn) / (tp + tn + fp + fn)
    recall = guarded("recall", tp, tp + fn)
    precision = guarded("precision", tp, tp + fp)
    f1 = guarded("f1", 2.0 * precision * recall, precision + recall)
    mcc = guarded(
        "mcc",
        tp * tn - fp * fn,
        math.sqrt((tp + fp) * (tn + fp) * (tp + fn) * (tn + fn)),
    )
    kappa = guarded(
        "kappa",
        2.0 * (tp * tn - fp * fn),
        (tp + fp) * (tn + fp) + (tp + fn) * (tn + fn),
    )

    return {
        "accuracy": accuracy,
        "recall": recall,
        "precision": precision,
        "f1": f1,
        "mcc": mcc,
        "kappa": kappa,
        "degenerate": tuple(degenerate),
    }


def _threshold_sweep(scores, y_true):
    """Cumulative TP/FP at each distinct score, descending; ties grouped."""
    scores = np.asarray(scores, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if scores.shape != y_true.shape:
        raise LengthMismatch(f"lengths differ: {scores.shape} vs {y_true.shape}")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = y_true[order]
    boundaries = np.flatnonzero(np.diff(s)) if s.size > 1 else np.array([], dtype=int)
    group_ends = np.append(boundaries, s.size - 1)
    cum_tp = np.cumsum(y == 1)[group_ends].astype(float)
    cum_fp = np.cumsum(y == 0)[group_ends].astype(float)
    return cum_tp, cum_fp


def roc_curve(scores, y_true) -> CurvePoints:
    """ROC points from a descending threshold sweep; trapezoid area.

    Tied scores collapse into a single threshold step, which makes the area
    equal the midrank (Mann-Whitney) statistic; a constant score vector
    yields exactly 0.5.
    """
    y_true = np.asarray(y_true, dtype=int)
    pos = int(np.sum(y_true == 1))
    neg = int(np.sum(y_true == 0))
    if pos == 0 or neg == 0:
        raise SingleClass(f"need both classes, got {pos} positives / {neg} negatives")
    cum_tp, cum_fp = _threshold_sweep(scores, y_true)
    tpr = cum_tp / pos
    fpr = cum_fp / neg
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], tpr])
    area = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
    points = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    return CurvePoints(kind="roc", points=points, area=area)


def pr_curve(scores, y_true) -> CurvePoints:
    """Precision-recall points per threshold; area is average precision,
    the step-wise sum of precision times recall increments."""
    y_true = np.asarray(y_true, dtype=int)
    pos = int(np.sum(y_true == 1))
    if pos == 0:
        raise NoPositives("precision-recall needs at least one positive")
    cum_tp, cum_fp = _threshold_sweep(scores, y_true)
    recall = cum_tp / pos
    precision = cum_tp / (cum_tp + cum_fp)
    # cumsum adds left to right, so the sum has the bits of a sequential loop
    area = float(np.cumsum(precision * np.diff(recall, prepend=0.0))[-1])
    points = ((0.0, 1.0),) + tuple(
        (float(r), float(p)) for r, p in zip(recall, precision)
    )
    return CurvePoints(kind="pr", points=points, area=area)
