"""Multilabel evaluation: accuracy, P/R/F1 (macro and per-sample), ROC-AUC.

Conventions, all surfaced in the report rather than hidden:

* decisions are ``score >= threshold`` (default 0.5);
* accuracy is element-wise over all B*K label decisions;
* F1 uses the 0/0 -> 0 convention, except a sample with no true and no
  predicted positives scores 1 (an exactly-correct empty prediction);
* AUC uses the rank (Mann-Whitney) form with ties counted 1/2; classes or
  samples without both a positive and a negative are skipped and counted.

:func:`evaluate` computes every number in one pass of array operations:
confusion counts once per class and once per sample, and one ranking of
the scores per class and per sample.  Its :class:`MetricReport` is the one
way to read them; an undefined AUC mean is None there.  Means of F1 values
are left-to-right sums, so a scalar loop reproduces them bitwise; rank sums
are half-integers and so exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


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


def _counts(batch: EvalBatch) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(TP, FP, FN) after thresholding once: per class, then per sample."""
    pred, y = batch.scores >= batch.threshold, batch.labels == 1
    cells = (pred & y, pred & ~y, ~pred & y)
    return tuple(c.sum(0) for c in cells), tuple(c.sum(1) for c in cells)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``num / den``, with 0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den > 0)


def _prf(tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise precision, recall and F1 of count arrays (0/0 -> 0)."""
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    return precision, recall, _ratio(2 * precision * recall, precision + recall)


def _aucs(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of every column; NaN where a column lacks a positive
    or a negative.  Each column is ranked once, ties sharing their mean rank."""
    n = len(scores)
    order = np.argsort(scores, axis=0, kind="stable")
    ranked = np.take_along_axis(scores, order, 0)
    pos = np.take_along_axis(labels, order, 0) == 1
    # A tie run spans sorted rows first..last; its members share rank (first + last) / 2 + 1.
    row = np.arange(n)[:, None]
    starts = np.ones(ranked.shape, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ends = np.ones(ranked.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, row, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, row, n)[::-1], axis=0)[::-1]
    npos = pos.sum(0)
    nneg = n - npos
    u = (((first + last) / 2 + 1) * pos).sum(0) - npos * (npos + 1) / 2.0
    return np.divide(u, npos * nneg, out=np.full(u.shape, np.nan), where=(npos > 0) & (nneg > 0))


def _mean_auc(aucs: np.ndarray) -> float | None:
    """numpy's mean over the units whose AUC is defined; None if there is none."""
    vals = aucs[~np.isnan(aucs)]
    return float(vals.mean()) if vals.size else None


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


def _mean(values: np.ndarray) -> float:
    """Left-to-right mean, as a scalar loop sums."""
    return float(sum(values.tolist()) / len(values))


def evaluate(batch: EvalBatch) -> MetricReport:
    """Full report over one batch; undefined AUCs are reported as None."""
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    (tp, fp, fn), (stp, sfp, sfn) = _counts(batch)
    precision, recall, f1 = _prf(tp, fp, fn)
    empty = stp + sfp + sfn == 0  # empty truth predicted empty scores 1
    class_aucs = _aucs(batch.scores, batch.labels)
    sample_aucs = _aucs(batch.scores.T, batch.labels.T)
    return MetricReport(
        accuracy=int(batch.labels.size - fp.sum() - fn.sum()) / batch.labels.size,
        macro_f1=_mean(f1),
        samples_f1=_mean(np.where(empty, 1.0, _prf(stp, sfp, sfn)[2])),
        auc_macro=_mean_auc(class_aucs),
        auc_samples=_mean_auc(sample_aucs),
        per_class_precision=precision.tolist(),
        per_class_recall=recall.tolist(),
        per_class_f1=f1.tolist(),
        degenerate_f1_classes=int((tp + fp + fn == 0).sum()),
        empty_correct_samples=int(empty.sum()),
        zero_denominator_samples=int((~empty & (stp == 0)).sum()),
        skipped_auc_classes=int(np.isnan(class_aucs).sum()),
        skipped_auc_samples=int(np.isnan(sample_aucs).sum()),
        threshold=batch.threshold,
    )
