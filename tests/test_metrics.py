import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angcn.errors import LengthMismatch, NoPositives, SingleClass
from angcn.metrics import ConfusionCounts, confusion, pr_curve, roc_curve, scalar_metrics

# -- independent oracles ------------------------------------------------------


def printed_formulas(tp, fp, tn, fn):
    """The six scalar formulas substituted directly, no shared code path."""
    acc = (tp + tn) / (tp + tn + fp + fn)
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    f1 = 2 * precision * recall / (precision + recall)
    mcc = (tp * tn - fp * fn) / math.sqrt(
        (tp + fp) * (tn + fp) * (tp + fn) * (tn + fn)
    )
    kappa = (2 * (tp * tn - fp * fn)) / (
        (tp + fp) * (tn + fp) + (tp + fn) * (tn + fn)
    )
    return acc, recall, precision, f1, mcc, kappa


def pair_counting_auc(scores, y_true):
    """Exhaustive concordant/tied pair statistic over positive-negative pairs."""
    pos = [s for s, y in zip(scores, y_true) if y == 1]
    neg = [s for s, y in zip(scores, y_true) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def enumerate_average_precision(scores, y_true):
    """AP by explicit enumeration of distinct thresholds, descending."""
    pos = sum(y_true)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 0)
        recall = tp / pos
        precision = tp / (tp + fp)
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


# -- confusion ----------------------------------------------------------------


class TestConfusion:
    def test_all_correct(self):
        y = [0, 0, 1, 1]
        c = confusion(y, y)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)

    def test_all_wrong(self):
        y_true = [0, 0, 1, 1]
        y_pred = [1, 1, 0, 0]
        c = confusion(y_true, y_pred)
        assert (c.tp, c.tn) == (0, 0)
        assert (c.fp, c.fn) == (2, 2)

    def test_hand_tally_fixture(self):
        y_true = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
        y_pred = [1, 0, 0, 1, 1, 0, 1, 0, 0, 1]
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 3, 2)
        assert c.total == 10

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0, 1, 1])


# -- scalar metrics -----------------------------------------------------------


class TestScalarMetrics:
    def test_empty_counts_are_refused(self):
        with pytest.raises(ValueError, match=r"^confusion counts are empty$"):
            scalar_metrics(ConfusionCounts(tp=0, fp=0, tn=0, fn=0))

    def test_perfect_classifier(self):
        m = scalar_metrics(ConfusionCounts(tp=50, fp=0, tn=50, fn=0))
        for key in ("accuracy", "recall", "precision", "f1", "mcc", "kappa"):
            assert m[key] == 1.0
        assert m["degenerate"] == ()

    def test_chance_level_symmetry(self):
        m = scalar_metrics(ConfusionCounts(tp=25, fp=25, tn=25, fn=25))
        assert m["accuracy"] == 0.5
        assert m["mcc"] == 0.0
        assert m["kappa"] == 0.0

    def test_direct_substitution_fixture(self):
        c = ConfusionCounts(tp=40, fp=20, tn=30, fn=10)
        m = scalar_metrics(c)
        acc, recall, precision, f1, mcc, kappa = printed_formulas(40, 20, 30, 10)
        assert m["accuracy"] == pytest.approx(0.7, abs=1e-15)
        assert m["recall"] == pytest.approx(0.8, abs=1e-15)
        assert m["precision"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert m["f1"] == pytest.approx(f1, abs=1e-15)
        assert m["mcc"] == pytest.approx(mcc, abs=1e-15)
        assert m["kappa"] == pytest.approx(kappa, abs=1e-15)
        assert m["kappa"] == pytest.approx(0.4, abs=1e-15)

    def test_fifty_random_tables_match_printed_formulas(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(1, 60, size=4))
            m = scalar_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
            acc, recall, precision, f1, mcc, kappa = printed_formulas(tp, fp, tn, fn)
            assert m["accuracy"] == pytest.approx(acc, abs=1e-12)
            assert m["recall"] == pytest.approx(recall, abs=1e-12)
            assert m["precision"] == pytest.approx(precision, abs=1e-12)
            assert m["f1"] == pytest.approx(f1, abs=1e-12)
            assert m["mcc"] == pytest.approx(mcc, abs=1e-12)
            assert m["kappa"] == pytest.approx(kappa, abs=1e-12)

    def test_degenerate_counts_flagged_as_zero(self):
        m = scalar_metrics(ConfusionCounts(tp=0, fp=0, tn=10, fn=0))
        assert m["recall"] == 0.0
        assert m["precision"] == 0.0
        assert m["f1"] == 0.0
        assert set(m["degenerate"]) == {"recall", "precision", "f1", "mcc", "kappa"}

    def test_class_swap_keeps_accuracy_and_mcc(self):
        c = ConfusionCounts(tp=40, fp=20, tn=30, fn=10)
        swapped = ConfusionCounts(tp=30, fp=10, tn=40, fn=20)
        m, ms = scalar_metrics(c), scalar_metrics(swapped)
        assert m["accuracy"] == ms["accuracy"]
        assert m["mcc"] == pytest.approx(ms["mcc"], abs=1e-15)
        # recall of one class is the other's specificity-side counterpart
        assert ms["recall"] == pytest.approx(30.0 / 50.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*(st.integers(min_value=0, max_value=80) for _ in range(4))))
    def test_documented_ranges(self, counts):
        tp, fp, tn, fn = counts
        if tp + fp + tn + fn == 0:
            return
        m = scalar_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        for key in ("accuracy", "recall", "precision", "f1"):
            assert 0.0 <= m[key] <= 1.0
        assert -1.0 <= m["mcc"] <= 1.0
        assert -1.0 <= m["kappa"] <= 1.0


# -- curves -------------------------------------------------------------------


class TestRocCurve:
    def test_scores_and_labels_of_different_lengths_are_refused(self):
        with pytest.raises(LengthMismatch, match=r"^lengths differ: \(3,\) vs \(2,\)$"):
            roc_curve([0.9, 0.5, 0.1], [1, 0])

    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.area == 1.0

    def test_constant_scores_are_chance(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.area == 0.5
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_fixture_matches_pair_counting(self):
        scores = [0.9, 0.8, 0.3, 0.2]
        y = [1, 0, 1, 0]
        curve = roc_curve(scores, y)
        assert curve.area == pytest.approx(0.75, abs=1e-15)
        assert curve.area == pytest.approx(pair_counting_auc(scores, y), abs=1e-15)

    def test_starts_at_origin_ends_at_one_one(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        curve = roc_curve(scores, y)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        xs = [p[0] for p in curve.points]
        assert all(a <= b for a, b in zip(xs, xs[1:]))

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_curve([0.1, 0.2], [1, 1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_auc_equals_pair_counting_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        # quantized scores force plenty of ties
        scores = np.round(rng.uniform(size=n), 1)
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        curve = roc_curve(scores, y)
        assert curve.area == pytest.approx(pair_counting_auc(scores, y), abs=1e-12)


class TestPrCurve:
    def test_perfect_separation(self):
        curve = pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.area == 1.0

    def test_single_positive_ranked_last(self):
        n = 5
        scores = [0.9, 0.8, 0.7, 0.6, 0.1]
        y = [0, 0, 0, 0, 1]
        curve = pr_curve(scores, y)
        assert curve.area == pytest.approx(1.0 / n, abs=1e-15)

    def test_fixture_matches_enumeration(self):
        scores = [0.9, 0.8, 0.3, 0.2]
        y = [1, 0, 1, 0]
        curve = pr_curve(scores, y)
        assert curve.area == pytest.approx(enumerate_average_precision(scores, y), abs=1e-15)
        assert curve.area == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_no_positives_raises(self):
        with pytest.raises(NoPositives):
            pr_curve([0.3, 0.4], [0, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_ap_matches_enumeration_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        scores = np.round(rng.uniform(size=n), 1)
        y = rng.integers(0, 2, size=n)
        y[0] = 1
        curve = pr_curve(scores.tolist(), y.tolist())
        assert curve.area == pytest.approx(
            enumerate_average_precision(scores.tolist(), y.tolist()), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.sampled_from([1, 2, 3]))
    def test_ap_has_the_bits_of_a_sequential_sum(self, seed, decimals):
        # the area is summed left to right like the oracle's loop, so the two
        # agree to the bit, tied scores (at one decimal most are ties) included
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        scores = np.round(rng.uniform(size=n), decimals).tolist()
        y = rng.integers(0, 2, size=n)
        y[0] = 1
        curve = pr_curve(scores, y.tolist())
        assert curve.area.hex() == enumerate_average_precision(scores, y.tolist()).hex()
