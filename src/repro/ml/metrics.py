"""Classification metrics used throughout the paper's evaluation.

Tables 1 and 2 report precision, recall and F1-measure; the text also
reports AUC and false-positive rate.  All metrics here follow the usual
binary-classification conventions with label ``1`` as the positive
("promotion" / "worker") class unless ``pos_label`` says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "false_positive_rate",
    "roc_curve",
    "roc_auc_score",
    "ClassificationReport",
    "classification_report",
]


def _validate(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true shape {y_true.shape} != y_pred shape {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return y_true, y_pred


def _binary_counts(y_true, y_pred, pos_label) -> tuple[int, int, int, int]:
    y_true, y_pred = _validate(y_true, y_pred)
    positive_truth = y_true == pos_label
    positive_pred = y_pred == pos_label
    tp = int(np.sum(positive_truth & positive_pred))
    fp = int(np.sum(~positive_truth & positive_pred))
    fn = int(np.sum(positive_truth & ~positive_pred))
    tn = int(np.sum(~positive_truth & ~positive_pred))
    return tp, fp, fn, tn


def accuracy_score(y_true, y_pred) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def precision_score(y_true, y_pred, pos_label=1) -> float:
    """TP / (TP + FP); 0.0 when nothing was predicted positive."""
    tp, fp, _, _ = _binary_counts(y_true, y_pred, pos_label)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(y_true, y_pred, pos_label=1) -> float:
    """TP / (TP + FN); 0.0 when no positives exist in the truth."""
    tp, _, fn, _ = _binary_counts(y_true, y_pred, pos_label)
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(y_true, y_pred, pos_label=1) -> float:
    """Harmonic mean of precision and recall."""
    precision = precision_score(y_true, y_pred, pos_label)
    recall = recall_score(y_true, y_pred, pos_label)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def false_positive_rate(y_true, y_pred, pos_label=1) -> float:
    """FP / (FP + TN) — the paper reports 1.94% (apps) and 1.41% (devices)."""
    _, fp, _, tn = _binary_counts(y_true, y_pred, pos_label)
    return fp / (fp + tn) if fp + tn else 0.0


def roc_curve(y_true, y_score, pos_label=1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ROC curve (fpr, tpr, thresholds) by descending-score sweep."""
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape:
        raise ValueError("y_true and y_score must have the same shape")
    positive = (y_true == pos_label).astype(np.float64)
    order = np.argsort(-y_score, kind="mergesort")
    y_score = y_score[order]
    positive = positive[order]

    # Collapse ties: keep the last index of each distinct score.
    distinct = np.where(np.diff(y_score))[0]
    threshold_idx = np.r_[distinct, positive.size - 1]

    tps = np.cumsum(positive)[threshold_idx]
    fps = (threshold_idx + 1) - tps
    total_pos = positive.sum()
    total_neg = positive.size - total_pos
    tpr = tps / total_pos if total_pos else np.zeros_like(tps)
    fpr = fps / total_neg if total_neg else np.zeros_like(fps)
    tpr = np.r_[0.0, tpr]
    fpr = np.r_[0.0, fpr]
    thresholds = np.r_[np.inf, y_score[threshold_idx]]
    return fpr, tpr, thresholds


def roc_auc_score(y_true, y_score, pos_label=1) -> float:
    """Area under the ROC curve via the trapezoid rule.

    Equals the Mann-Whitney probability that a random positive outranks a
    random negative, which is the property the paper's "AUC above 0.99"
    claims rely on.
    """
    fpr, tpr, _ = roc_curve(y_true, y_score, pos_label)
    return float(np.trapezoid(tpr, fpr))


@dataclass(frozen=True)
class ClassificationReport:
    """Bundle of the metrics reported in Tables 1 and 2."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    auc: float
    false_positive_rate: float
    support_positive: int
    support_negative: int


def classification_report(y_true, y_pred, y_score=None, pos_label=1) -> ClassificationReport:
    """Compute the full per-run report; AUC falls back to hard labels."""
    y_true, y_pred = _validate(y_true, y_pred)
    if y_score is None:
        y_score = (y_pred == pos_label).astype(np.float64)
    auc = roc_auc_score(y_true, y_score, pos_label)
    return ClassificationReport(
        precision=precision_score(y_true, y_pred, pos_label),
        recall=recall_score(y_true, y_pred, pos_label),
        f1=f1_score(y_true, y_pred, pos_label),
        accuracy=accuracy_score(y_true, y_pred),
        auc=auc,
        false_positive_rate=false_positive_rate(y_true, y_pred, pos_label),
        support_positive=int(np.sum(y_true == pos_label)),
        support_negative=int(np.sum(y_true != pos_label)),
    )
