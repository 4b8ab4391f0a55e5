import numpy as np
import pytest

from sonocad import metrics

# a published 5-fold breast-ultrasound benchmark: per-fold TP/TN/FP/FN
BENCHMARK_FOLDS = [
    metrics.ConfusionCounts(20, 9, 1, 0),
    metrics.ConfusionCounts(16, 12, 0, 2),
    metrics.ConfusionCounts(14, 11, 4, 1),
    metrics.ConfusionCounts(18, 9, 3, 0),
    metrics.ConfusionCounts(13, 10, 3, 4),
]


class TestConfusionCounts:
    def test_addition(self):
        a = metrics.ConfusionCounts(1, 2, 3, 4)
        b = metrics.ConfusionCounts(10, 20, 30, 40)
        assert a + b == metrics.ConfusionCounts(11, 22, 33, 44)

    def test_total(self):
        assert metrics.ConfusionCounts(1, 2, 3, 4).total == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metrics.ConfusionCounts(-1, 0, 0, 0)


class TestAccumulate:
    def test_basic(self):
        pred = [1, 1, -1, -1, 1]
        truth = [1, -1, -1, 1, 1]
        assert metrics.accumulate(pred, truth) == metrics.ConfusionCounts(2, 1, 1, 1)

    def test_perfect(self):
        y = [1, -1, 1]
        c = metrics.accumulate(y, y)
        assert c == metrics.ConfusionCounts(tp=2, tn=1, fp=0, fn=0)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            metrics.accumulate([0, 1], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.accumulate([1], [1, -1])


class TestEvaluate:
    def test_benchmark_totals(self):
        total = sum(BENCHMARK_FOLDS, metrics.ConfusionCounts())
        assert total == metrics.ConfusionCounts(tp=81, tn=51, fp=11, fn=7)
        out = metrics.evaluate(total)
        assert round(100 * out["accuracy"], 2) == 88.00
        assert round(100 * out["sensitivity"], 2) == 92.05
        assert round(100 * out["specificity"], 2) == 82.26
        assert round(100 * out["positive_accuracy"], 2) == 88.04
        assert round(100 * out["negative_accuracy"], 2) == 87.93

    def test_all_correct(self):
        out = metrics.evaluate(metrics.ConfusionCounts(tp=5, tn=5))
        assert len(out) == 5 and all(v == 1.0 for v in out.values())

    def test_all_wrong(self):
        out = metrics.evaluate(metrics.ConfusionCounts(fp=5, fn=5))
        assert len(out) == 5 and all(v == 0.0 for v in out.values())

    def test_zero_denominator_is_none(self):
        out = metrics.evaluate(metrics.ConfusionCounts(tp=3, fp=1))
        assert out["specificity"] == 0.0
        assert out["negative_accuracy"] is None
        assert out["sensitivity"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.evaluate(metrics.ConfusionCounts())

    def test_scale_free(self):
        c = metrics.ConfusionCounts(4, 3, 2, 1)
        c10 = metrics.ConfusionCounts(40, 30, 20, 10)
        assert metrics.evaluate(c) == metrics.evaluate(c10)


class TestRoc:
    def test_perfect_separation(self):
        curve = metrics.roc([2.0, 1.0, -1.0, -2.0], [1, 1, -1, -1])
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_all_tied_is_chance(self):
        curve = metrics.roc([0.0, 0.0, 0.0, 0.0], [1, -1, 1, -1])
        assert curve.auc == 0.5
        assert curve.points == [(0.0, 0.0), (1.0, 1.0)]

    def test_reversed_scores(self):
        curve = metrics.roc([-2.0, -1.0, 1.0, 2.0], [1, 1, -1, -1])
        assert curve.auc == 0.0

    def test_small_worked_example(self):
        # one inversion among 2x3 pairs: AUC = 5/6
        curve = metrics.roc([0.9, 0.4, 0.6, 0.2, 0.1], [1, 1, -1, -1, -1])
        assert curve.auc == pytest.approx(5 / 6)

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 25))
            truth = rng.choice([-1, 1], size=n)
            if len(set(truth)) < 2:
                truth[0] = -truth[0]
            # coarse grid forces plenty of ties
            d = rng.integers(0, 4, size=n).astype(float)
            curve = metrics.roc(d, truth)
            pos = d[truth == 1]
            neg = d[truth == -1]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            assert curve.auc == pytest.approx(wins / (len(pos) * len(neg)))

    def test_monotone_points(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=40)
        truth = rng.choice([-1, 1], size=40)
        truth[:2] = [1, -1]
        curve = metrics.roc(d, truth)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.roc([1.0, 2.0], [1, 1])

    def test_nan_decision_rejected(self):
        # NaN equals nothing, not even itself, so it cannot join a tie block
        with pytest.raises(ValueError, match="NaN"):
            metrics.roc([0.5, float("nan"), -0.5], [1, 1, -1])

    def test_tie_blocks_give_one_point_each(self):
        curve = metrics.roc([2.0, 1.0, 1.0, 1.0, -0.0, 0.0], [1, 1, -1, 1, -1, -1])
        assert curve.points == [(0.0, 0.0), (0.0, 1 / 3), (1 / 3, 1.0), (1.0, 1.0)]

    def test_csv(self):
        curve = metrics.roc([1.0, -1.0], [1, -1])
        text = metrics.roc_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0,0"
        assert lines[-1] == "1,1"


class TestReport:
    def test_benchmark_report(self):
        text = metrics.report_csv(BENCHMARK_FOLDS)
        lines = text.strip().split("\n")
        assert lines[0] == "fold,tp,tn,fp,fn"
        assert lines[1] == "1,20,9,1,0"
        assert lines[6] == "total,81,51,11,7"
        assert "accuracy,0.88,88.00%" in lines
        assert "sensitivity,0.9204545455,92.05%" in lines

    def test_undefined_index_printed(self):
        text = metrics.report_csv([metrics.ConfusionCounts(tp=3, fn=1)])
        assert "specificity,undefined,undefined" in text
