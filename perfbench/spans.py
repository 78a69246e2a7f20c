"""Per-layer metrics from the spans and counters of traced workload runs.

Pure functions over the records ``tracer.py`` writes; no I/O.  A span is a
dict with ``id``, ``name``, ``start``, ``end`` (nanoseconds), ``parent``
(the id of the enclosing span, or None), ``run`` and ``attrs``.  Span ids
are unique within a run; every process is its own run.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

TAIL_Q = 0.9
MIN_BEYOND = 10  # samples that must lie above a reported tail percentile


# ---------------------------------------------------------------------------
# Percentile and self-time arithmetic


def tail_rank(n: int, q: float = TAIL_Q, min_beyond: int = MIN_BEYOND) -> int:
    """1-based rank of the sample reported as the q-quantile of n samples.

    The nearest-rank q-quantile, lowered until at least ``min_beyond``
    samples lie above it, and never below the upper median.  With 100 or
    more samples this is the plain nearest-rank p90; with fewer it is the
    highest percentile the samples support.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(min(math.ceil(q * n), n - min_beyond), (n + 2) // 2)


def tail(values, q: float = TAIL_Q, min_beyond: int = MIN_BEYOND) -> float:
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered), q, min_beyond) - 1]


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the part of [lo, hi] that the intervals cover."""
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans) -> dict[tuple, int]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append((s["start"], s["end"]))
    return {
        (s["run"], s["id"]): s["end"] - s["start"]
        - union_length(children[(s["run"], s["id"])], s["start"], s["end"])
        for s in spans
    }


# ---------------------------------------------------------------------------
# The per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    hook: str  # the span the metric is read from ("bench" for the harness itself)


# Timings, each reported as .p50, .p90 and .n; the suffix gives the unit.
TIMINGS = (
    ("data.load_dataset_s", "data.load_dataset"),
    ("data.standardize_s", "data.standardize"),
    ("model.forward_ms", "model.forward"),
    ("model.embed_ms", "model.embed"),
    ("model.msw_block_ms", "model.msw_block"),
    ("model.window_attention_ms", "model.window_attention"),
    ("model.branch_project_ms", "model.branch_project"),
    ("model.fuse_ms", "model.fuse"),
    ("tensor.backward_ms", "tensor.backward"),
    ("train.step_ms", "train.adam_step"),
    ("train.bce_loss_ms", "train.bce_loss"),
    ("train.adam_step_ms", "train.adam_step"),
    ("train.val_pass_s", "model.predict"),
    ("metrics.evaluate_ms", "metrics.evaluate"),
    ("params.save_checkpoint_ms", "params.save_checkpoint"),
    ("params.load_checkpoint_ms", "params.load_checkpoint"),
)

SINGLES = (
    LayerMetric("data.bytes_read", "bytes", "lower", "data.load_dataset"),
    LayerMetric("data.rss_after_setup_mb", "MB", "lower", "model.forward"),
    LayerMetric("model.forward_macs_per_record", "count", "lower", "model.forward"),
    LayerMetric("model.forward_gmacs_per_s", "GMAC/s", "higher", "model.forward"),
    LayerMetric("model.predict_records_per_s", "records/s", "higher", "model.predict"),
    LayerMetric("model.predict_graph_ops", "count", "lower", "model.forward"),
    LayerMetric("tensor.graph_ops_per_step", "count", "lower", "tensor.backward"),
    LayerMetric("tensor.matmul_calls_per_step", "count", "lower", "tensor.backward"),
    LayerMetric("train.rss_growth_mb", "MB", "lower", "train.adam_step"),
    LayerMetric("metrics.evaluate_records", "records", "higher", "metrics.evaluate"),
    LayerMetric("params.save_checkpoint_calls", "count", "lower", "params.save_checkpoint"),
    LayerMetric("params.checkpoint_bytes", "bytes", "lower", "params.save_checkpoint"),
    LayerMetric("bench.trace_overhead_s", "s", "lower", "bench"),
)


def _timing_unit(name: str) -> tuple[str, float]:
    return ("ms", 1e6) if name.endswith("_ms") else ("s", 1e9)


def layer_specs() -> list[LayerMetric]:
    """Every per-layer metric, in report order."""
    out = []
    for name, hook in TIMINGS:
        unit, _ = _timing_unit(name)
        out += [LayerMetric(f"{name}.p50", unit, "lower", hook),
                LayerMetric(f"{name}.p90", unit, "lower", hook),
                LayerMetric(f"{name}.n", "count", "higher", hook)]
    return out + list(SINGLES)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans, counters, main_train: bool, overhead_s: float | None,
                  absent_hooks: dict[str, str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values and, for each metric without a value, the reason.

    ``counters`` holds one dict per traced process.  ``main_train`` says
    which forward passes are the workload's own: train-mode ones in a
    training workload, eval-mode ones (inside ``predict``) in evaluation.
    Forward sub-spans count only under such a pass.  An absent metric is
    reported as 0 next to its reason.
    """
    by_key = {(s["run"], s["id"]): s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def enclosing_forward(s):
        while s is not None and s["name"] != "model.forward":
            s = by_key.get((s["run"], s["parent"]))
        return s

    def on_main_path(s):
        f = enclosing_forward(s)
        return f is not None and f["attrs"]["train"] == main_train

    def dur(s):
        return s["end"] - s["start"]

    main_fwd = [s for s in named("model.forward") if s["attrs"]["train"] == main_train]
    steps, last_fwd = [], {}
    for s in sorted(spans, key=lambda s: (s["run"], s["start"])):
        if s["name"] == "model.forward" and s["attrs"]["train"]:
            last_fwd[s["run"]] = s
        elif s["name"] == "train.adam_step" and s["run"] in last_fwd:
            steps.append(s["end"] - last_fwd[s["run"]]["start"])
    samples = {
        "data.load_dataset_s": [dur(s) for s in named("data.load_dataset")],
        "data.standardize_s": [dur(s) for s in named("data.standardize")],
        "model.forward_ms": [dur(s) for s in main_fwd],
        "tensor.backward_ms": [dur(s) for s in named("tensor.backward")],
        "train.step_ms": steps,
        "train.bce_loss_ms": [dur(s) for s in named("train.bce_loss")],
        "train.adam_step_ms": [dur(s) for s in named("train.adam_step")],
        "train.val_pass_s": [dur(s) for s in named("model.predict")
                             if s["attrs"]["via"].endswith(".train")],
        "metrics.evaluate_ms": [dur(s) for s in named("metrics.evaluate")],
        "params.save_checkpoint_ms": [dur(s) for s in named("params.save_checkpoint")],
        "params.load_checkpoint_ms": [dur(s) for s in named("params.load_checkpoint")],
    }
    for part in ("embed", "msw_block", "window_attention", "branch_project", "fuse"):
        samples[f"model.{part}_ms"] = [dur(s) for s in named(f"model.{part}") if on_main_path(s)]

    values: dict[str, float | None] = {}
    for name, _ in TIMINGS:
        xs = samples[name]
        _, per_ns = _timing_unit(name)
        values[f"{name}.n"] = len(xs)
        values[f"{name}.p50"] = _median(xs) / per_ns if xs else None
        values[f"{name}.p90"] = tail(xs) / per_ns if xs else None

    def counter(key):
        return _median([c[key] for c in counters if c.get(key) is not None])

    counted = [s for s in main_fwd if "macs" in s["attrs"]]
    macs = counted[0]["attrs"]["macs"] / counted[0]["attrs"]["batch"] if counted else None
    predicts = named("model.predict")
    predict_ns = sum(dur(s) for s in predicts)
    moved = [s["attrs"]["bytes"] for s in named("params.save_checkpoint")
             + named("params.load_checkpoint") if "bytes" in s["attrs"]]
    growth = [c["rss_last_step_mb"] - c["rss_first_step_mb"] for c in counters
              if c.get("rss_first_step_mb") is not None]
    saves_per_run = defaultdict(int)
    for s in named("params.save_checkpoint"):
        saves_per_run[s["run"]] += 1
    runs = {s["run"] for s in spans}
    values.update({
        "data.bytes_read": _median([s["attrs"]["bytes"] for s in named("data.load_dataset")
                                    if "bytes" in s["attrs"]]),
        "data.rss_after_setup_mb": counter("rss_after_setup_mb"),
        "model.forward_macs_per_record": macs,
        "model.forward_gmacs_per_s": _median([macs * s["attrs"]["batch"] / dur(s)
                                              for s in main_fwd]) if macs else None,
        "model.predict_records_per_s": (sum(s["attrs"]["records"] for s in predicts)
                                        / predict_ns * 1e9) if predict_ns else None,
        "model.predict_graph_ops": counter("predict_graph_ops"),
        "tensor.graph_ops_per_step": counter("graph_ops_per_step"),
        "tensor.matmul_calls_per_step": counter("matmul_calls_per_step"),
        "train.rss_growth_mb": _median(growth),
        "metrics.evaluate_records": _median([s["attrs"]["records"]
                                             for s in named("metrics.evaluate")]),
        "params.save_checkpoint_calls": _median([saves_per_run[r] for r in runs]) if runs else None,
        "params.checkpoint_bytes": _median(moved),
        "bench.trace_overhead_s": overhead_s,
    })

    out, reasons = {}, {}
    for spec in layer_specs():
        value = values[spec.name]
        if spec.hook in absent_hooks:
            value, reasons[spec.name] = None, absent_hooks[spec.hook]
        elif value is None and spec.hook == "bench":
            reasons[spec.name] = "needs a completed traced and untraced operation"
        elif value is None:
            reasons[spec.name] = f"no {spec.hook} call on this workload's measured path"
        out[spec.name] = 0.0 if value is None else float(value)
    return out, reasons


def span_table(spans) -> list[tuple[str, int, float, float]]:
    """(name, calls, p50 ms, p50 self ms) for every span name, by total time."""
    selfs = self_times(spans)
    durs, own = defaultdict(list), defaultdict(list)
    for s in spans:
        durs[s["name"]].append(s["end"] - s["start"])
        own[s["name"]].append(selfs[(s["run"], s["id"])])
    rows = [(name, len(durs[name]), _median(durs[name]) / 1e6, _median(own[name]) / 1e6)
            for name in durs]
    return sorted(rows, key=lambda r: -r[1] * r[2])
