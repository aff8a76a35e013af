"""Classification metrics over a gold-by-predicted confusion matrix.

Accuracy is the diagonal fraction; macro F1 averages per-class F1 over
every class present in gold or predictions; weighted F1 weights per-class
F1 by gold support.  Degenerate classes (no predictions or no gold) take
precision/recall/F1 of zero instead of dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(Exception):
    pass


@dataclass
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # gold rows, predicted columns
    parse_failures: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if self.counts.shape != (n, n):
            raise MetricsError(f"counts shape {self.counts.shape} != ({n}, {n})")
        if np.any(self.counts < 0):
            raise MetricsError("confusion counts must be non-negative")

    @classmethod
    def from_pairs(
        cls,
        gold: list[str],
        predicted: list[str],
        labels: tuple[str, ...] | None = None,
        parse_failures: int = 0,
    ) -> "ConfusionMatrix":
        if len(gold) != len(predicted):
            raise MetricsError("gold and predicted lengths differ")
        if labels is None:
            labels = tuple(sorted(set(gold) | set(predicted)))
        index = {label: i for i, label in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for g, p in zip(gold, predicted):
            counts[index[g], index[p]] += 1
        return cls(labels=labels, counts=counts, parse_failures=parse_failures)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def gold_support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def predicted_support(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass
class ClassStats:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


def per_class_stats(cm: ConfusionMatrix) -> list[ClassStats]:
    """Precision/recall/F1/support for every label in the matrix."""
    stats = []
    gold = cm.gold_support()
    pred = cm.predicted_support()
    for i, label in enumerate(cm.labels):
        tp = int(cm.counts[i, i])
        precision = tp / pred[i] if pred[i] > 0 else 0.0
        recall = tp / gold[i] if gold[i] > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        stats.append(
            ClassStats(
                label=label,
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                support=int(gold[i]),
            )
        )
    return stats


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions over all predictions (micro F1 equals this)."""
    if cm.total == 0:
        raise MetricsError("empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over classes present in gold or predictions."""
    present = (cm.gold_support() + cm.predicted_support()) > 0
    if not np.any(present):
        raise MetricsError("empty confusion matrix")
    stats = per_class_stats(cm)
    return float(np.mean([s.f1 for s, keep in zip(stats, present) if keep]))


def weighted_f1(cm: ConfusionMatrix) -> float:
    """Per-class F1 weighted by gold class proportion."""
    if cm.total == 0:
        raise MetricsError("empty confusion matrix")
    stats = per_class_stats(cm)
    weights = cm.gold_support() / cm.total
    return float(sum(w * s.f1 for w, s in zip(weights, stats)))


def summarize(cm: ConfusionMatrix) -> dict:
    return {
        "acc": accuracy(cm),
        "m_f1": macro_f1(cm),
        "w_f1": weighted_f1(cm),
        "micro_f1": accuracy(cm),
    }
