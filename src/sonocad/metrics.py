"""Confusion counts, the five evaluation indices, and ROC/AUC.

Positive class is +1 (malignant), so sensitivity is the malignant recall.
"Positive accuracy" and "negative accuracy" are the precision of each class
(elsewhere called PPV and NPV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be >= 0")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def accumulate(pred, truth) -> ConfusionCounts:
    """Count TP/TN/FP/FN; labels must be +1/-1, +1 positive."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    bad = set(np.unique(np.concatenate([pred, truth]))) - {-1, 1}
    if bad:
        raise ValueError(f"labels must be +1/-1, got extra {sorted(bad)}")
    return ConfusionCounts(
        tp=int(np.sum((pred == 1) & (truth == 1))),
        tn=int(np.sum((pred == -1) & (truth == -1))),
        fp=int(np.sum((pred == 1) & (truth == -1))),
        fn=int(np.sum((pred == -1) & (truth == 1))),
    )


def evaluate(c: ConfusionCounts) -> dict[str, float | None]:
    """The five ratio indices; an index with a zero denominator is None."""
    if c.total == 0:
        raise ValueError("no cases")

    def ratio(num, den):
        return num / den if den > 0 else None

    return {
        "accuracy": ratio(c.tp + c.tn, c.total),
        "sensitivity": ratio(c.tp, c.tp + c.fn),
        "specificity": ratio(c.tn, c.tn + c.fp),
        "positive_accuracy": ratio(c.tp, c.tp + c.fp),
        "negative_accuracy": ratio(c.tn, c.tn + c.fn),
    }


@dataclass
class RocCurve:
    points: list[tuple[float, float]]  # (fpr, tpr), from (0,0) to (1,1)
    auc: float


def roc(decisions, truth) -> RocCurve:
    """ROC from raw decision values; positive iff decision >= threshold.

    Tied decision values move as one block. AUC by trapezoid, which under
    that tie handling equals the Mann-Whitney statistic with ties at 1/2.
    """
    decisions = np.asarray(decisions, dtype=np.float64)
    truth = np.asarray(truth)
    if len(decisions) != len(truth):
        raise ValueError(f"{len(decisions)} decision values for {len(truth)} labels")
    n_pos = int(np.sum(truth == 1))
    n_neg = int(np.sum(truth == -1))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both classes for a ROC curve")
    if np.isnan(decisions).any():
        raise ValueError("NaN decision value")
    order = np.argsort(-decisions, kind="stable")
    d, t = decisions[order], truth[order]
    ends = np.flatnonzero(np.append(d[1:] != d[:-1], True))  # last index of each tie block
    fpr = np.append(0.0, np.cumsum(t == -1)[ends] / n_neg)
    tpr = np.append(0.0, np.cumsum(t == 1)[ends] / n_pos)
    # cumsum adds the trapezoids in curve order; sum() would add them pairwise
    area = np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    return RocCurve(points=list(zip(fpr.tolist(), tpr.tolist())), auc=float(area))


def roc_csv(curve: RocCurve) -> str:
    lines = ["fpr,tpr"]
    lines += [f"{x:.10g},{y:.10g}" for x, y in curve.points]
    return "\n".join(lines) + "\n"


def report_csv(per_fold: list[ConfusionCounts]) -> str:
    """Per-fold TP/TN/FP/FN rows, a totals row, then the five indices."""
    total = sum(per_fold, ConfusionCounts())
    lines = ["fold,tp,tn,fp,fn"]
    lines += [f"{i},{c.tp},{c.tn},{c.fp},{c.fn}" for i, c in enumerate(per_fold, start=1)]
    lines.append(f"total,{total.tp},{total.tn},{total.fp},{total.fn}")
    lines.append("index,value,percent")
    for name, value in evaluate(total).items():
        if value is None:
            lines.append(f"{name},undefined,undefined")
        else:
            lines.append(f"{name},{value:.10g},{100 * value:.2f}%")
    return "\n".join(lines) + "\n"
