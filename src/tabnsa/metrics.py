"""Evaluation metrics: ROC AUC, accuracy, macro-F1, RMSE, confusion matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties at 1/2.

    Rank-sum (Mann-Whitney) formulation with midrank tie handling, O(B log B):
    tied scores share the mean of their 1-based ranks. Raises ValueError
    unless both classes are present and every score is finite.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise ValueError("roc_auc needs finite scores")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc is undefined when only one class is present")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # tie-group starts
    count = np.diff(first, append=scores.size)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((2 * first + count + 1) / 2.0, count)  # (lowest + highest rank) / 2
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(pred, true) -> float:
    pred = np.asarray(pred).reshape(-1)
    true = np.asarray(true).reshape(-1)
    if pred.shape != true.shape:
        raise ValueError("pred and true must have equal length")
    return float(np.mean(pred == true))


def confusion_matrix(true, pred, num_classes: int) -> np.ndarray:
    """C x C counts; rows index the true class, columns the predicted class."""
    true = np.asarray(true, dtype=np.intp).reshape(-1)
    pred = np.asarray(pred, dtype=np.intp).reshape(-1)
    if true.shape != pred.shape:
        raise ValueError("pred and true must have equal length")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (true, pred), 1)
    return mat


def macro_f1(pred, true, num_classes: int) -> float:
    """Unweighted mean of per-class F1 over all `num_classes` classes.

    A class absent from both pred and true contributes F1 = 0 and is still
    averaged; zero-denominator precision/recall/F1 components are 0.
    """
    if num_classes < 2:
        raise ValueError("macro_f1 needs at least 2 classes")
    mat = confusion_matrix(true, pred, num_classes)
    tp = np.diag(mat).astype(np.float64)
    pred_ct = mat.sum(axis=0).astype(np.float64)
    true_ct = mat.sum(axis=1).astype(np.float64)
    denom = pred_ct + true_ct
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(num_classes), where=denom > 0)
    return float(f1.mean())


def rmse(pred, true) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    true = np.asarray(true, dtype=np.float64).reshape(-1)
    if pred.shape != true.shape:
        raise ValueError("pred and true must have equal length")
    return float(np.sqrt(np.mean((pred - true) ** 2)))


# the scalar metrics of an EvalReport, in its field order
METRIC_NAMES = ("auc", "accuracy", "macro_f1", "rmse")


@dataclass
class EvalReport:
    """Task metrics; `dataclasses.asdict` gives its serialized form, and
    fields that do not apply are None."""

    auc: float | None = None
    accuracy: float | None = None
    macro_f1: float | None = None
    rmse: float | None = None
    confusion: list[list[int]] | None = None

    def __post_init__(self):
        for name in METRIC_NAMES:
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.confusion is not None and self.accuracy is not None:
            mat = np.asarray(self.confusion)
            total = mat.sum()
            if total > 0 and abs(np.trace(mat) / total - self.accuracy) > 1e-9:
                raise ValueError("accuracy inconsistent with confusion matrix")


def classification_report(probs: np.ndarray, labels, num_classes: int) -> EvalReport:
    """Build an EvalReport from class probabilities (B, C) and integer labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    pred = probs.argmax(axis=1)
    mat = confusion_matrix(labels, pred, num_classes)
    auc = None
    if num_classes == 2 and len(np.unique(labels)) == 2:
        auc = roc_auc(probs[:, 1], labels)
    return EvalReport(
        auc=auc,
        accuracy=accuracy(pred, labels),
        macro_f1=macro_f1(pred, labels, num_classes),
        confusion=mat.tolist(),
    )


def regression_report(pred, true) -> EvalReport:
    return EvalReport(rmse=rmse(pred, true))
