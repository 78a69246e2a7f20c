"""Multilabel evaluation: accuracy, P/R/F1 (macro and per-sample), ROC-AUC.

Conventions, all surfaced in the report rather than hidden:

* decisions are ``score >= threshold`` (default 0.5);
* accuracy is element-wise over all B*K label decisions;
* F1 uses the 0/0 -> 0 convention, except a sample with no true and no
  predicted positives scores 1 (an exactly-correct empty prediction);
* AUC uses the rank (Mann-Whitney) form with ties counted 1/2; classes or
  samples without both a positive and a negative are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UndefinedMetricError


@dataclass(frozen=True)
class EvalBatch:
    """Scores and multi-hot labels for B samples over K classes."""

    scores: np.ndarray
    labels: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        if scores.ndim != 2 or scores.shape != labels.shape:
            raise DimensionError(
                f"scores {scores.shape} and labels {labels.shape} must be equal 2-D shapes"
            )
        bad = np.argwhere(~np.isfinite(scores))
        if bad.size:
            row, k = bad[0]
            raise ValueError(
                f"scores must be finite; got {scores[row, k]} at row {row}, class {k}"
            )
        if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0/1")

    @property
    def predictions(self) -> np.ndarray:
        return (self.scores >= self.threshold).astype(np.int64)


def threshold_confusion(batch: EvalBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (TP, FP, FN, TN) counts after thresholding."""
    pred = batch.predictions
    y = batch.labels
    tp = ((pred == 1) & (y == 1)).sum(axis=0)
    fp = ((pred == 1) & (y == 0)).sum(axis=0)
    fn = ((pred == 0) & (y == 1)).sum(axis=0)
    tn = ((pred == 0) & (y == 0)).sum(axis=0)
    return tp, fp, fn, tn


def accuracy(batch: EvalBatch) -> float:
    """Fraction of correct label decisions over all B*K of them."""
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    return float((batch.predictions == batch.labels).mean())


def _f1(tp, fp, fn) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def macro_f1(batch: EvalBatch) -> float:
    """Unweighted mean of per-class F1 (0/0 classes contribute 0)."""
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    tp, fp, fn, _ = threshold_confusion(batch)
    per_class = [_f1(*c)[2] for c in zip(tp, fp, fn)]
    # Sequential sum keeps the value reproducible by a scalar loop.
    return float(sum(per_class) / len(per_class))


def _per_sample_f1(batch: EvalBatch) -> tuple[list[float], int, int]:
    """Each sample's F1, plus the counts of exactly-correct empty samples and
    of samples with predictions or truths but no true positive."""
    pred = batch.predictions
    y = batch.labels
    tps = ((pred == 1) & (y == 1)).sum(axis=1).tolist()
    fps = ((pred == 1) & (y == 0)).sum(axis=1).tolist()
    fns = ((pred == 0) & (y == 1)).sum(axis=1).tolist()
    vals = []
    empty_correct = zero_denom = 0
    for tp, fp, fn in zip(tps, fps, fns):
        if tp + fp + fn == 0:
            vals.append(1.0)  # empty truth predicted empty
            empty_correct += 1
        else:
            vals.append(_f1(tp, fp, fn)[2])
            zero_denom += tp == 0
    return vals, empty_correct, zero_denom


def samples_f1(batch: EvalBatch) -> float:
    """Mean over samples of the F1 on each sample's own label set."""
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    vals = _per_sample_f1(batch)[0]
    return float(sum(vals) / len(vals))


def _rank_average(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    start = 0
    n = len(x)
    for i in range(1, n + 1):
        if i == n or sx[i] != sx[start]:
            ranks[order[start:i]] = 0.5 * (start + 1 + i)
            start = i
    return ranks


def _auc_binary(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC for one score/label column; None if degenerate."""
    pos = labels == 1
    npos = int(pos.sum())
    nneg = len(labels) - npos
    if npos == 0 or nneg == 0:
        return None
    ranks = _rank_average(scores)
    return float((ranks[pos].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def _unit_aucs(batch: EvalBatch, mode: str) -> list[float | None]:
    """AUC of every class (``macro``) or sample (``samples``); None if degenerate."""
    if mode not in ("macro", "samples"):
        raise ValueError(f"mode must be 'macro' or 'samples', got {mode!r}")
    scores, labels = batch.scores, batch.labels
    if mode == "samples":
        scores, labels = scores.T, labels.T
    return [_auc_binary(scores[:, k], labels[:, k]) for k in range(scores.shape[1])]


def _mean_auc(aucs: list[float | None], mode: str) -> float:
    vals = [v for v in aucs if v is not None]
    if not vals:
        raise UndefinedMetricError(f"roc_auc[{mode}]: no unit has both a positive and a negative")
    return float(np.mean(vals))


def roc_auc(batch: EvalBatch, mode: str = "macro") -> float:
    """Mean AUC over classes (``macro``) or over samples (``samples``).

    Degenerate units (no positive or no negative) are skipped; if nothing
    remains the metric is undefined and raises.
    """
    return _mean_auc(_unit_aucs(batch, mode), mode)


@dataclass
class MetricReport:
    """Full evaluation summary; every reported value lies in [0, 1]."""

    accuracy: float
    macro_f1: float
    samples_f1: float
    auc_macro: float | None
    auc_samples: float | None
    per_class_precision: list[float] = field(default_factory=list)
    per_class_recall: list[float] = field(default_factory=list)
    per_class_f1: list[float] = field(default_factory=list)
    degenerate_f1_classes: int = 0
    empty_correct_samples: int = 0
    zero_denominator_samples: int = 0
    skipped_auc_classes: int = 0
    skipped_auc_samples: int = 0
    threshold: float = 0.5
    accuracy_mode: str = "per_label"

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def evaluate(batch: EvalBatch) -> MetricReport:
    """Full report over one batch; undefined AUCs are reported as None.

    One per-sample pass and one AUC per class and per sample feed every
    field.
    """
    tp, fp, fn, _ = threshold_confusion(batch)
    per = [_f1(*c) for c in zip(tp, fp, fn)]
    f1s, empty_correct, zero_denom = _per_sample_f1(batch)
    aucs = {mode: _unit_aucs(batch, mode) for mode in ("macro", "samples")}

    def auc_or_none(mode):
        try:
            return _mean_auc(aucs[mode], mode)
        except UndefinedMetricError:
            return None

    return MetricReport(
        accuracy=accuracy(batch),
        macro_f1=macro_f1(batch),
        samples_f1=float(sum(f1s) / len(f1s)),
        auc_macro=auc_or_none("macro"),
        auc_samples=auc_or_none("samples"),
        per_class_precision=[p for p, _, _ in per],
        per_class_recall=[r for _, r, _ in per],
        per_class_f1=[f for _, _, f in per],
        degenerate_f1_classes=int(sum(1 for c in zip(tp, fp, fn) if sum(c) == 0)),
        empty_correct_samples=empty_correct,
        zero_denominator_samples=zero_denom,
        skipped_auc_classes=aucs["macro"].count(None),
        skipped_auc_samples=aucs["samples"].count(None),
        threshold=batch.threshold,
    )
