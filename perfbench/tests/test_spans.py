import pytest

import spans


def span(run, sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": run, "attrs": {"via": "pkg.mod", **attrs}}


# ---------------------------------------------------------------------------
# Percentile and sample-count rule


@pytest.mark.parametrize("n, rank", [
    (1000, 900),  # plain nearest-rank p90: 100 samples above it
    (100, 90),    # exactly ten samples above p90
    (99, 89),     # p90 would leave 9 above; lowered to keep ten
    (50, 40),
    (22, 12),     # n - 10 meets the upper median
    (21, 11),     # floored at the upper median
    (5, 3),
    (4, 3),
    (1, 1),
])
def test_tail_rank_keeps_ten_samples_above_or_falls_back_to_median(n, rank):
    assert spans.tail_rank(n) == rank
    if n >= 22:
        assert n - rank >= spans.MIN_BEYOND


def test_tail_rank_rejects_no_samples():
    with pytest.raises(ValueError):
        spans.tail_rank(0)


def test_tail_values():
    assert spans.tail(range(1, 101)) == 90
    assert spans.tail(range(1000, 0, -1)) == 900  # order of the input does not matter
    assert spans.tail([4.0, 1.0, 3.0, 2.0]) == 3.0  # upper median, never below the median
    assert spans.tail([7.0]) == 7.0


# ---------------------------------------------------------------------------
# Self time


def test_union_length_merges_overlaps_and_clips_to_the_parent():
    assert spans.union_length([], 0, 10) == 0
    assert spans.union_length([(2, 4), (6, 9)], 0, 10) == 5
    assert spans.union_length([(2, 6), (4, 8)], 0, 10) == 6
    assert spans.union_length([(2, 6), (3, 4)], 0, 10) == 4  # nested
    assert spans.union_length([(-5, 3), (8, 20)], 0, 10) == 5  # clipped at both ends


def test_self_time_subtracts_covered_part_of_children():
    recs = [
        span("r", 0, "parent", 0, 100),
        span("r", 1, "child", 10, 30, parent=0),
        span("r", 2, "child", 50, 60, parent=0),
        span("r", 3, "grandchild", 12, 20, parent=1),
    ]
    st = spans.self_times(recs)
    assert st[("r", 0)] == 100 - 20 - 10
    assert st[("r", 1)] == 20 - 8  # only direct children count
    assert st[("r", 2)] == 10
    assert st[("r", 3)] == 8


def test_self_time_keeps_runs_apart():
    # Ids restart in every process; a child of run "a" must not reduce run "b".
    recs = [span("a", 0, "p", 0, 10), span("a", 1, "c", 2, 6, parent=0),
            span("b", 0, "p", 0, 10)]
    st = spans.self_times(recs)
    assert st[("a", 0)] == 6
    assert st[("b", 0)] == 10


# ---------------------------------------------------------------------------
# Per-layer metrics


def train_step_spans(run, t0):
    """One training step followed by a validation pass, as the tracer records them."""
    ms = 1_000_000
    return [
        span(run, 0, "model.forward", t0, t0 + 20 * ms, train=True, batch=16,
             macs=16 * 1000),
        span(run, 1, "model.embed", t0 + ms, t0 + 2 * ms, parent=0),
        span(run, 2, "model.msw_block", t0 + 2 * ms, t0 + 18 * ms, parent=0),
        span(run, 3, "model.window_attention", t0 + 3 * ms, t0 + 8 * ms, parent=2),
        span(run, 4, "train.bce_loss", t0 + 20 * ms, t0 + 21 * ms),
        span(run, 5, "tensor.backward", t0 + 22 * ms, t0 + 40 * ms),
        span(run, 6, "train.adam_step", t0 + 40 * ms, t0 + 42 * ms),
        span(run, 7, "model.predict", t0 + 50 * ms, t0 + 90 * ms, records=64,
             via="mswecg.train"),
        span(run, 8, "model.forward", t0 + 51 * ms, t0 + 89 * ms, parent=7, train=False,
             batch=64),
        span(run, 9, "model.embed", t0 + 52 * ms, t0 + 60 * ms, parent=8),
    ]


def test_layer_metrics_for_a_training_step():
    recs = train_step_spans("op1", 0) + train_step_spans("op3", 10**9)
    counters = [{"graph_ops_per_step": 134, "rss_first_step_mb": 100.0,
                 "rss_last_step_mb": 130.0}] * 2
    values, reasons = spans.layer_metrics(recs, counters, main_train=True, overhead_s=0.25,
                                          absent_hooks={})
    assert values["train.step_ms.p50"] == 42.0  # forward start to adam_step end
    assert values["train.step_ms.n"] == 2
    assert values["model.forward_ms.p50"] == 20.0  # train-mode passes only
    assert values["model.embed_ms.n"] == 2  # the val pass's embed is excluded
    assert values["model.embed_ms.p50"] == 1.0
    assert values["model.window_attention_ms.p50"] == 5.0  # found through msw_block
    assert values["train.val_pass_s.p50"] == pytest.approx(0.04)
    assert values["model.forward_macs_per_record"] == 1000
    assert values["model.forward_gmacs_per_s"] == pytest.approx(16 * 1000 / 0.020 / 1e9)
    assert values["model.predict_records_per_s"] == pytest.approx(64 / 0.04)
    assert values["tensor.graph_ops_per_step"] == 134
    assert values["train.rss_growth_mb"] == 30.0
    assert values["bench.trace_overhead_s"] == 0.25
    assert values["params.save_checkpoint_calls"] == 0  # a count, present and zero
    assert "params.save_checkpoint_calls" not in reasons
    assert values["params.load_checkpoint_ms.p50"] == 0.0
    assert "no params.load_checkpoint call" in reasons["params.load_checkpoint_ms.p50"]
    assert set(values) == {m.name for m in spans.layer_specs()}


def test_missing_hook_reports_every_dependent_metric_absent():
    recs = train_step_spans("op1", 0)
    why = "hook target mswecg.train.adam_step not found"
    values, reasons = spans.layer_metrics(recs, [{}], True, None,
                                          absent_hooks={"train.adam_step": why})
    for name in ("train.step_ms.p50", "train.step_ms.p90", "train.step_ms.n",
                 "train.adam_step_ms.p50", "train.rss_growth_mb"):
        assert reasons[name] == why
        assert values[name] == 0.0
    assert values["tensor.backward_ms.n"] == 1  # other layers still report
    assert "bench.trace_overhead_s" in reasons


def test_span_table_reports_self_time():
    rows = {r[0]: r for r in spans.span_table(train_step_spans("op1", 0))}
    name, calls, p50, self_p50 = rows["model.msw_block"]
    assert (calls, p50, self_p50) == (1, 16.0, 11.0)
