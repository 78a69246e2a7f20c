"""Multilabel training: BCE loss, Adam, step-decayed LR, loop, checkpoints.

The loop is fully deterministic under a fixed seed: parameter init, batch
shuffling and attention dropout each draw from their own child generator of
one seed sequence.  The best-validation-macro-F1 parameters are retained
(and written as a checkpoint when a path is configured); the returned log is
one row per (epoch, split).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import tensor as tc
from .config import MswConfig
from .data import Dataset, fold_masks, standardize
from .errors import ConfigError, DimensionError, NumericError
from .metrics import EvalBatch, MetricReport, evaluate
from .model import forward, predict
from .params import ParamStore, save_checkpoint
from .tensor import Tensor

PROB_CLIP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    batch_size: int = 16
    lr0: float = 1e-4
    decay_factor: float = 10.0
    decay_every: int = 10
    seed: int = 0
    checkpoint: str | None = None
    report_every: int = 1

    def __post_init__(self):
        kinds = {"lr0": Real, "decay_factor": Real, "checkpoint": (str, type(None))}
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        wrong = {k: v for k, v in values.items() if not isinstance(v, kinds.get(k, Integral))}
        if wrong:
            raise ConfigError(f"train config values of the wrong type: {wrong}")
        for name in ("max_epochs", "batch_size", "decay_every", "report_every"):
            if values[name] < 1:
                raise ConfigError(f"{name} must be >= 1, got {values[name]}")
        if values["seed"] < 0:
            raise ConfigError(f"seed must be >= 0, got {values['seed']}")
        for name in ("lr0", "decay_factor"):
            if not (math.isfinite(values[name]) and values[name] > 0):
                raise ConfigError(f"{name} must be positive and finite, got {values[name]}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: lr0 / decay_factor^(epoch // decay_every)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * float(cfg.decay_factor) ** -(epoch // cfg.decay_every)


def bce_loss(probs: Tensor, labels) -> Tensor:
    """Mean over B*K of -[y ln p + (1-y) ln(1-p)], with p clipped for safety.

    One recorded op whose value is :func:`_np_bce`.  Entries clipped to
    [PROB_CLIP, 1 - PROB_CLIP] get a zero gradient.
    """
    y = np.asarray(labels, dtype=np.float64)
    if probs.shape != y.shape:
        raise DimensionError(f"probs {probs.shape} and labels {y.shape} differ")

    x = probs.data

    def backward_fn(g):
        p = np.clip(x, PROB_CLIP, 1.0 - PROB_CLIP)
        dp = ((1.0 - y) / (1.0 - p) - y / p) * (g / y.size)
        dp[(x < PROB_CLIP) | (x > 1.0 - PROB_CLIP)] = 0.0
        return (dp,)

    return tc.apply_op("bce", (probs,), np.float64(_np_bce(x, y)), backward_fn)


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Step count and moment vectors, laid out like ``ParamStore.flat``."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: ParamStore, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params.flat``, in place.  Raises before
    anything changes if a gradient is missing or not finite (naming the first)."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    g = params.flat_grad()
    finite = np.isfinite(g)
    if not finite.all():
        ends = np.cumsum([t.size for _, t in params.items()])
        name = params.names()[np.searchsorted(ends, np.argmin(finite), side="right")]
        raise NumericError(f"non-finite gradient in {name}")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    params.flat -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Loop


@dataclass
class EpochRow:
    epoch: int
    split: str
    loss: float
    accuracy: float
    macro_f1: float
    samples_f1: float
    auc_macro: float
    auc_samples: float
    lr: float

    def as_csv_row(self) -> list[str]:
        """Floats as ``repr`` (round-trips exactly), the rest as ``str``."""
        values = (getattr(self, name) for name in LOG_COLUMNS)
        return [repr(v) if isinstance(v, float) else str(v) for v in values]


LOG_COLUMNS = tuple(f.name for f in fields(EpochRow))


@dataclass
class TrainResult:
    params: ParamStore  # final-epoch parameters
    best_params: ParamStore  # parameters at the best validation macro-F1
    log: list[EpochRow]
    best_epoch: int
    best_val_macro_f1: float


def _np_bce(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())


def _row(epoch, split, loss, report: MetricReport, lr) -> EpochRow:
    return EpochRow(
        epoch=epoch, split=split, loss=loss,
        accuracy=report.accuracy, macro_f1=report.macro_f1, samples_f1=report.samples_f1,
        auc_macro=float("nan") if report.auc_macro is None else report.auc_macro,
        auc_samples=float("nan") if report.auc_samples is None else report.auc_samples,
        lr=lr,
    )


def train_loop(
    cfg: MswConfig,
    params: ParamStore,
    dataset: Dataset,
    tcfg: TrainConfig,
    verbose: bool = False,
) -> TrainResult:
    """Seeded mini-batch training with per-epoch validation on fold 9.

    ``dataset`` is the raw set (a mapped one after ``load_dataset``); it is
    standardized here by :func:`standardize`, and each batch and the
    validation pass read and scale only their own rows, so memory does not
    grow with the set.  Train-split metrics are computed from the predictions
    gathered while the parameters moved during the epoch; validation metrics
    come from a dedicated evaluation pass.
    """
    train, val, _ = (np.flatnonzero(mask) for mask in fold_masks(dataset))
    signals = standardize(dataset)  # a DataError naming a bad sample, or for no training folds
    y_train = dataset.labels[train].astype(np.float64)
    y_val = dataset.labels[val]

    ss = np.random.SeedSequence(tcfg.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    adam = AdamState()
    log: list[EpochRow] = []
    best_f1 = -1.0
    best_epoch = -1
    best_params = params.copy()
    n = len(train)

    for epoch in range(tcfg.max_epochs):
        lr = lr_at(epoch, tcfg)
        order = shuffle_rng.permutation(n)
        seen_probs = np.zeros_like(y_train)
        loss_sum = 0.0
        for b_idx, start in enumerate(range(0, n, tcfg.batch_size)):
            idx = order[start : start + tcfg.batch_size]
            res = forward(signals[train[idx]], cfg, params, train=True, rng=dropout_rng,
                          maps=False)
            loss = bce_loss(res.probs, y_train[idx])
            lv = loss.item()
            if not np.isfinite(lv):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {b_idx}")
            params.zero_grads()
            tc.backward(loss)
            try:
                adam_step(params, adam, lr)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, batch {b_idx}") from exc
            seen_probs[idx] = res.probs.data
            loss_sum += lv * len(idx)
            del res, loss  # the next forward does not overlap this step's outputs

        train_report = evaluate(EvalBatch(scores=seen_probs, labels=y_train.astype(np.int64)))
        log.append(_row(epoch, "train", loss_sum / n, train_report, lr))

        if len(val):
            try:
                val_probs = predict(signals, cfg, params, rows=val)
            except NumericError as exc:
                raise NumericError(f"validation at epoch {epoch}: {exc}") from exc
            val_report = evaluate(EvalBatch(scores=val_probs, labels=y_val))
            val_loss = _np_bce(val_probs, y_val.astype(np.float64))
            log.append(_row(epoch, "val", val_loss, val_report, lr))
            if val_report.macro_f1 > best_f1:
                best_f1 = val_report.macro_f1
                best_epoch = epoch
                best_params = params.copy()
                if tcfg.checkpoint:
                    save_checkpoint(best_params, tcfg.checkpoint,
                                    config={"model": cfg.to_dict(), "train": tcfg.to_dict(),
                                            "best_epoch": epoch})
            if verbose and epoch % tcfg.report_every == 0:
                print(
                    f"epoch {epoch:3d}  lr {lr:.2e}  train loss {loss_sum / n:.4f}  "
                    f"val loss {val_loss:.4f}  val macro-F1 {val_report.macro_f1:.4f}"
                )
        elif verbose and epoch % tcfg.report_every == 0:
            print(f"epoch {epoch:3d}  lr {lr:.2e}  train loss {loss_sum / n:.4f}")

    return TrainResult(
        params=params,
        best_params=best_params,
        log=log,
        best_epoch=best_epoch,
        best_val_macro_f1=best_f1,
    )


def format_metric_log(log: list[EpochRow], config: dict | None = None) -> str:
    """CSV text for the per-epoch log; '#' lines carry the resolved config."""
    buf = io.StringIO()
    if config:
        for key in sorted(config):
            buf.write(f"# {key} = {config[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOG_COLUMNS)
    for row in log:
        writer.writerow(row.as_csv_row())
    return buf.getvalue()


def write_metric_log(log: list[EpochRow], path, config: dict | None = None) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(format_metric_log(log, config))


# ---------------------------------------------------------------------------
# Finite-difference audit


def finite_difference_audit(
    cfg: MswConfig,
    params: ParamStore,
    signals: np.ndarray,
    labels: np.ndarray,
    step: float = 1e-5,
) -> tuple[float, dict[str, float]]:
    """Compare every parameter gradient of the full model loss with central
    finite differences.

    Returns the max relative error and a per-parameter breakdown.  Relative
    error is |a - n| / max(|a|, |n|, 1e-3), elementwise, which ignores pure
    round-off on near-zero entries while staying far stricter than the 1e-4
    gate.
    """
    signals = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)

    def loss_value() -> float:
        with tc.no_grad():
            return _np_bce(forward(signals, cfg, params).probs.data, labels)

    params.zero_grads()
    tc.backward(bce_loss(forward(signals, cfg, params).probs, labels))
    analytic = params.flat_grad()
    numeric = np.empty_like(analytic)
    flat = params.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_value()
        flat[i] = orig - step
        lm = loss_value()
        flat[i] = orig
        numeric[i] = (lp - lm) / (2.0 * step)
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(numeric, 1e-3)])
    errors = np.split(np.abs(analytic - numeric) / denom,
                      np.cumsum([p.size for _, p in params.items()])[:-1])
    per_param = {name: float(e.max()) for name, e in zip(params.names(), errors)}
    return max(per_param.values()), per_param
