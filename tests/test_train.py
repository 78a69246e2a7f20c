import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mswecg import data, model
from mswecg import tensor as tc
from mswecg.config import MswConfig
from mswecg.data import (
    Dataset,
    StandardizedRows,
    SynthSpec,
    load_dataset,
    save_dataset,
    standardize,
    synth_generate,
)
from mswecg.errors import ConfigError, DataError, DimensionError, NumericError
from mswecg.metrics import EvalBatch, evaluate
from mswecg.model import forward, predict
from mswecg.params import init_params, load_checkpoint
from mswecg.train import (
    AdamState,
    TrainConfig,
    adam_step,
    bce_loss,
    finite_difference_audit,
    format_metric_log,
    lr_at,
    train_loop,
)
from util import Tensor, backward, per_parameter_adam_step, sigmoid
from util import bce_loss as ref_bce_loss

TINY = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)


def tiny_dataset(n=40, seed=0):
    return synth_generate(SynthSpec(seed=seed, n_records=n, n_leads=TINY.n_leads, L=TINY.L))


def subset(ds, keep):
    """The records where the boolean mask ``keep`` holds, as a new dataset."""
    return Dataset(header=ds.header, ids=tuple(np.array(ds.ids)[keep]),
                   signals=ds.signals[keep], labels=ds.labels[keep], folds=ds.folds[keep])


def split_rows(ds, folds):
    """Standardized signals and labels of the records in ``folds``."""
    rows = np.flatnonzero(np.isin(ds.folds, folds))
    return standardize(ds)[rows], ds.labels[rows]


# ---------------------------------------------------------------------------
# loss


def test_bce_zero_when_probs_match_labels():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = bce_loss(y, y)
    assert loss == pytest.approx(0.0, abs=1e-10)


def test_bce_half_prob_is_ln2():
    loss, _ = bce_loss(np.array([[0.5]]), np.array([[1.0]]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_matches_scalar_loop():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.05, 0.95, size=(5, 4))
    labels = (rng.random((5, 4)) < 0.5).astype(float)
    total = 0.0
    for i in range(5):
        for j in range(4):
            p, y = probs[i, j], labels[i, j]
            total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
    loss, _ = bce_loss(probs, labels)
    assert loss == pytest.approx(total / 20.0, abs=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        bce_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_bce_is_differentiable():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    labels = (rng.random((3, 4)) < 0.5).astype(float)
    backward(ref_bce_loss(sigmoid(x), labels))
    # d/dx BCE(sigmoid(x)) = (p - y) / N
    p = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(x.grad, (p - labels) / 12.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Adam


def make_store(values):
    from mswecg.params import ParamStore

    return ParamStore(values.items())


def grad_of(store, **grads):
    """A gradient vector laid out like ``store.flat``: the given slots, and NaN,
    as a step leaves a slot no rule wrote, elsewhere."""
    g = np.full_like(store.flat, np.nan)
    slots = store.views(g)
    for name, value in grads.items():
        slots[name][...] = value
    return g


def test_adam_first_step_magnitude_and_sign():
    store = make_store({"w": np.array([1.0, -2.0, 3.0])})
    g = np.array([0.3, -1.7, 0.001])
    adam_step(store, grad_of(store, w=g), AdamState(), lr=0.01)
    delta = store["w"] - np.array([1.0, -2.0, 3.0])
    assert np.all(np.sign(delta) == -np.sign(g))
    # m_hat/sqrt(v_hat) = +-1 for a constant gradient, up to the eps term
    assert np.allclose(np.abs(delta), 0.01, rtol=1e-4)


def test_adam_zero_gradient_no_change():
    store = make_store({"w": np.array([1.0, 2.0])})
    adam_step(store, grad_of(store, w=np.zeros(2)), AdamState(), lr=0.5)
    assert np.array_equal(store["w"], [1.0, 2.0])


def test_adam_lr_zero_changes_nothing():
    store = make_store({"w": np.array([3.0])})
    adam_step(store, grad_of(store, w=np.array([1.4])), AdamState(), lr=0.0)
    assert np.array_equal(store["w"], [3.0])


def test_adam_missing_grad_errors():
    # A rule that leaves its slot unwritten: the step's NaN fill stays, and
    # adam_step names the parameter before anything changes.
    params = init_params(TINY, seed=0)
    before = params.flat.copy()
    x, y = split_rows(tiny_dataset(40), range(1, 9))
    res = forward(x[:4], TINY, params, train=True, rng=np.random.default_rng(0))
    embed_rule = res.rules[0]
    res.rules[0] = lambda g, grads: embed_rule(g, {**grads, "embed.b": np.empty(TINY.C)})
    res.rules.append(bce_loss(res.probs, y[:4])[1])
    grad = np.full_like(params.flat, np.nan)
    tc.backward(res.rules, params.views(grad))
    assert np.isnan(params.views(grad)["embed.b"]).all()
    assert np.isfinite(grad).sum() == grad.size - TINY.C
    with pytest.raises(NumericError, match=r"^non-finite gradient in embed\.b$"):
        adam_step(params, grad, AdamState(), lr=0.1)
    assert np.array_equal(params.flat, before)


def test_adam_missing_grad_changes_nothing():
    store = make_store({"a": np.array([1.0]), "b": np.array([2.0])})
    state = AdamState()
    with pytest.raises(NumericError, match=r"^non-finite gradient in b$"):
        adam_step(store, grad_of(store, a=np.array([0.5])), state, lr=0.1)
    assert np.array_equal(store["a"], [1.0])
    assert np.array_equal(store["b"], [2.0])
    assert state.step == 0 and state.m is None and state.v is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_grad_names_the_first_parameter_and_changes_nothing(bad):
    store = make_store({"a": np.array([1.0]), "b": np.array([2.0, 3.0]), "c": np.array([4.0])})
    state = AdamState()
    g = grad_of(store, a=np.array([0.5]), b=np.array([0.1, bad]), c=np.array([bad]))
    with pytest.raises(NumericError, match=r"^non-finite gradient in b$"):
        adam_step(store, g, state, lr=0.1)
    assert np.array_equal(store.flat, [1.0, 2.0, 3.0, 4.0])
    assert state.step == 0 and state.m is None and state.v is None


def test_adam_three_step_trajectory_matches_hand_unroll():
    # Quadratic loss w^2/2, gradient = w; unroll the recurrence by hand.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w = 0.7
    m = v = 0.0
    expected = []
    for t in range(1, 4):
        g = w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        expected.append(w)

    store = make_store({"w": np.array([0.7])})
    state = AdamState()
    got = []
    for _ in range(3):
        adam_step(store, store.flat.copy(), state, lr=lr)
        got.append(float(store["w"][0]))
    assert got == pytest.approx(expected, abs=1e-15)


def test_adam_step_equals_the_per_parameter_update_bitwise():
    rng = np.random.default_rng(8)
    for trial in range(5):
        shapes = [tuple(rng.integers(1, 5, size=rng.integers(0, 4))) for _ in range(6)]
        values = {f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
        store = make_store(values)
        data = {name: v.copy() for name, v in values.items()}
        state, oracle = AdamState(), {"step": 0, "m": {}, "v": {}}
        for step, lr in enumerate((1e-3, 0.5, 0.0, 2e-2)):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=v.shape)
                     for name, v in values.items()}
            grads["p0"][...] = 0.0 if step % 2 else -0.0  # signed zeros
            adam_step(store, grad_of(store, **grads), state, lr)
            per_parameter_adam_step(data, grads, oracle, lr)
            assert state.step == oracle["step"]
            for name in values:
                assert np.array_equal(store[name], data[name]), (trial, step, name)
                assert store[name].tobytes() == data[name].tobytes()
            for mine, theirs in ((state.m, oracle["m"]), (state.v, oracle["v"])):
                assert mine.tobytes() == np.concatenate(
                    [theirs[name].ravel() for name in values]).tobytes()


# ---------------------------------------------------------------------------
# schedule


def test_lr_schedule_step_decay_values():
    cfg = TrainConfig(lr0=1e-4)
    assert lr_at(0, cfg) == pytest.approx(1e-4)
    assert lr_at(9, cfg) == pytest.approx(1e-4)
    assert lr_at(10, cfg) == pytest.approx(1e-5)
    assert lr_at(20, cfg) == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0)
    for kwargs, needle in [({"decay_factor": float("nan")}, "decay_factor must be positive"),
                           ({"lr0": float("inf")}, "lr0 must be positive and finite"),
                           ({"report_every": 0}, "report_every must be >= 1"),
                           ({"seed": -1}, "seed must be >= 0"),
                           ({"max_epochs": 1.5}, "wrong type"),
                           ({"lr0": "0.1"}, "wrong type")]:
        with pytest.raises(ConfigError, match=needle):
            TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# loop


def test_one_epoch_decreases_loss_on_same_batch_order():
    ds = tiny_dataset(40)
    params = init_params(TINY, seed=0)
    x, y = split_rows(ds, range(1, 9))
    y = y.astype(float)
    initial, _ = bce_loss(forward(x, TINY, params).probs, y)
    result = train_loop(TINY, params, ds, TrainConfig(max_epochs=1, batch_size=8,
                                                      lr0=1e-3, seed=0))
    final, _ = bce_loss(forward(x, TINY, result.params).probs, y)
    assert final < initial


def test_seeded_runs_produce_identical_logs():
    ds = tiny_dataset(30)
    cfg = TrainConfig(max_epochs=2, batch_size=8, seed=11)
    log_a = train_loop(TINY, init_params(TINY, seed=11), ds, cfg).log
    log_b = train_loop(TINY, init_params(TINY, seed=11), ds, cfg).log
    assert format_metric_log(log_a) == format_metric_log(log_b)


def test_overfit_one_batch_monotone():
    x, y = split_rows(tiny_dataset(40), range(1, 9))
    x, y = x[:8], y[:8].astype(float)
    params = init_params(TINY, seed=1)
    state = AdamState()
    losses = []
    grad = np.empty_like(params.flat)
    for _ in range(20):
        res = forward(x, dataclasses.replace(TINY, attn_dropout=0.0), params, train=True)
        loss, loss_rule = bce_loss(res.probs, y)
        losses.append(loss)
        res.rules.append(loss_rule)
        grad.fill(np.nan)
        tc.backward(res.rules, params.views(grad))
        adam_step(params, grad, state, lr=1e-3)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_nan_loss_aborts_with_coordinates():
    ds = tiny_dataset(20)
    params = init_params(TINY, seed=2)
    params["embed.W"][0, 0] = np.nan
    with pytest.raises(NumericError, match=r"epoch 0, batch 0"):
        train_loop(TINY, params, ds, TrainConfig(max_epochs=1, batch_size=8, seed=0))


def test_non_finite_gradient_aborts_before_any_update(monkeypatch):
    ds = tiny_dataset(20)
    params = init_params(TINY, seed=2)
    before = params.copy()
    real_backward = tc.backward

    def backward_with_inf_grad(rules, grads):
        real_backward(rules, grads)
        grads["fusion.W"][0, 0] = np.inf

    monkeypatch.setattr(tc, "backward", backward_with_inf_grad)
    with pytest.raises(NumericError, match=r"fusion\.W at epoch 0, batch 0"):
        train_loop(TINY, params, ds, TrainConfig(max_epochs=1, batch_size=8, seed=0))
    assert np.array_equal(params.flat, before.flat)


def test_non_finite_validation_probs_abort_with_coordinates():
    ds = tiny_dataset(40)
    first_val_row = np.flatnonzero(ds.folds == 9)[0]
    # A finite sample, with finite sums, that overflows once scaled by the
    # training std (about 0.53): the record's probabilities are NaN.
    ds.signals[first_val_row, 0, 0] = 1e308
    with pytest.raises(NumericError,
                       match=rf"validation at epoch 0: .*record {first_val_row}, class 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        train_loop(TINY, init_params(TINY, seed=2), ds,
                   TrainConfig(max_epochs=1, batch_size=8, seed=0))


def test_a_non_finite_sample_of_an_in_memory_set_is_named_at_set_up():
    ds = tiny_dataset(40)
    ds.signals[13, 1, 7] = np.nan
    with pytest.raises(DataError, match=r"record synth-00013 \(row 13\): non-finite sample"):
        train_loop(TINY, init_params(TINY, seed=2), ds,
                   TrainConfig(max_epochs=1, batch_size=8, seed=0))


def test_validation_is_one_predict_call_per_epoch_over_the_validation_rows(monkeypatch):
    ds = tiny_dataset(40)
    calls = []

    def counting_predict(signals, cfg, params, rows=None):
        calls.append((signals, rows))
        return predict(signals, cfg, params, rows=rows)

    monkeypatch.setattr("mswecg.train.predict", counting_predict)
    train_loop(TINY, init_params(TINY, seed=2), ds, TrainConfig(max_epochs=2, batch_size=8))
    assert len(calls) == 2
    for signals, rows in calls:
        assert isinstance(signals, StandardizedRows) and signals.signals is ds.signals
        assert np.array_equal(rows, np.flatnonzero(ds.folds == 9))


def test_checkpoint_round_trip_reproduces_val_metrics(tmp_path):
    ds = tiny_dataset(40)
    tcfg = TrainConfig(max_epochs=2, batch_size=8, seed=3,
                       checkpoint=str(tmp_path / "best"))
    result = train_loop(TINY, init_params(TINY, seed=3), ds, tcfg)
    store, saved_cfg = load_checkpoint(tmp_path / "best")
    assert saved_cfg["best_epoch"] == result.best_epoch

    x, y = split_rows(ds, [9])
    probs_best = predict(x, TINY, result.best_params)
    probs_loaded = predict(x, TINY, store)
    assert probs_best.tobytes() == probs_loaded.tobytes()
    logged = [r for r in result.log if r.split == "val" and r.epoch == result.best_epoch][0]
    report = evaluate(EvalBatch(scores=probs_loaded, labels=y))
    assert report.macro_f1 == logged.macro_f1
    assert report.accuracy == logged.accuracy


def test_metric_log_format_and_config_embedding():
    ds = tiny_dataset(20)
    result = train_loop(TINY, init_params(TINY, seed=4), ds,
                        TrainConfig(max_epochs=1, batch_size=8, seed=4))
    text = format_metric_log(result.log, config={"seed": 4})
    lines = text.splitlines()
    assert lines[0] == "# seed = 4"
    assert lines[1] == "epoch,split,loss,accuracy,macro_f1,samples_f1,auc_macro,auc_samples,lr"
    assert len(lines) == 2 + len(result.log)


def test_train_loop_with_cyclic_shift():
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3, shift=1)
    ds = tiny_dataset(20)
    result = train_loop(cfg, init_params(cfg, seed=0), ds,
                        TrainConfig(max_epochs=1, batch_size=8, seed=0))
    assert all(np.isfinite(row.loss) for row in result.log)


def test_train_loop_without_validation_fold():
    # Only folds 1..8 populated: no val rows, best checkpoint never chosen.
    ds = tiny_dataset(40)
    trimmed = subset(ds, ds.folds <= 8)
    with pytest.warns(UserWarning, match="validation fold"):
        result = train_loop(TINY, init_params(TINY, seed=0), trimmed,
                            TrainConfig(max_epochs=1, batch_size=8, seed=0))
    assert all(r.split == "train" for r in result.log)
    assert result.best_epoch == -1


# ---------------------------------------------------------------------------
# gradient audit


def test_finite_difference_audit_tiny_model():
    rng = np.random.default_rng(5)
    params = init_params(TINY, seed=5)
    signals = rng.normal(size=(2, TINY.n_leads, TINY.L))
    labels = (rng.random((2, TINY.K)) < 0.5).astype(float)
    worst, per_param = finite_difference_audit(TINY, params, signals, labels)
    assert worst < 1e-4
    assert set(per_param) == set(params.names())


def test_train_loop_memory_does_not_grow_with_a_mapped_set(tmp_path, monkeypatch):
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=8, heads=2, windows=(5, 10, 20), K=3)
    # Blocks of four records for the statistics passes, so both sets are
    # read in blocks of the same size (the default block holds 10 records).
    monkeypatch.setattr(data, "BLOCK_BYTES", 4 * 12 * 1000 * 8)
    peaks = {}
    for n in (20, 200):
        sig, lab = tmp_path / f"sig{n}.bin", tmp_path / f"lab{n}.csv"
        save_dataset(synth_generate(SynthSpec(seed=5, n_records=n, n_leads=12, L=1000)), sig, lab)
        ds = load_dataset(sig, lab)
        params = init_params(cfg, seed=0)
        tracemalloc.start()
        try:
            train_loop(cfg, params, ds, TrainConfig(max_epochs=1, batch_size=8, seed=0))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= 1.10 * peaks[20], peaks


def _desk_train_step_bytes(n_leads=4, L=200):
    """(bytes a 16-record step keeps from forward to backward, tracemalloc
    peak during ``tc.backward``), both above the baseline before the forward.
    As in ``train_loop``, the forward returns no maps and the gradient vector
    is made once, before.  The default geometry is the desk config's."""
    cfg = MswConfig(L=L, n_leads=n_leads, P=5, C=32, heads=4, windows=(5, 10, 20), K=3,
                    attn_dropout=0.2)
    params = init_params(cfg, seed=0)
    data_rng, rng = np.random.default_rng(1), np.random.default_rng(2)
    sig = data_rng.normal(size=(16, cfg.n_leads, cfg.L))
    labels = (data_rng.random((16, cfg.K)) < 0.5).astype(np.float64)
    grad = np.empty_like(params.flat)
    grads = params.views(grad)
    for _ in range(2):  # the second step's figures: the first warms caches
        grad.fill(np.nan)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = forward(sig, cfg, params, train=True, rng=rng, maps=False)
            res.rules.append(bce_loss(res.probs, labels)[1])
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tc.backward(res.rules, grads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return held, peak


# The desk bounds below stand as they were before the block ran its records in
# chunks: 16 records of 40 tokens fit one chunk of model.PREDICT_TOKEN_ROWS, so
# a desk step still runs one task per branch.


def test_train_step_keeps_at_most_5_mb_from_forward_to_backward():
    # What a desk step's forward and loss leave alive until backward: the
    # rules' saved arrays and the forward result.  Backward rebuilds the QKV
    # product, the merged heads and the MLP pre-activations (3.70e6 bytes
    # kept; 4.36e6 when a tape also held the block's input and output tokens,
    # 8.29e6 when the rules also kept those products).
    held, _ = _desk_train_step_bytes()
    assert 0 < held <= 5e6, held


def test_train_step_backward_peaks_at_most_10_mb_above_the_pre_forward_baseline():
    # Each branch's saved arrays go once its backward has run.  The peak hangs
    # on how the pool's two threads overlap: 7.74e6 to 8.28e6 bytes over five
    # runs, 6.24e6 on one thread (7.2e6 to 9.02e6 and 6.91e6 while a tape held
    # the block's tokens).  With the products kept and every branch's arrays
    # held to the end of the block's backward: 11.4e6 to 12.5e6.
    _, peak = _desk_train_step_bytes()
    assert 0 < peak <= 10e6, peak


def test_a_chunked_ptb_xl_length_step_peaks_below_the_one_chunk_step(monkeypatch):
    # 16 records of 200 tokens: four 4-record chunks at the default budget,
    # one chunk at a budget of 16 records.  Each pool task's rebuilt
    # transients are then a quarter of a branch's (peaks 25.1-25.9e6 against
    # 38.7-41.2e6 bytes over five runs each on a 2-CPU VM).
    assert model.PREDICT_TOKEN_ROWS < 8 * 200
    chunked = _desk_train_step_bytes(n_leads=12, L=1000)[1]
    monkeypatch.setattr(model, "PREDICT_TOKEN_ROWS", 16 * 200)
    one_chunk = _desk_train_step_bytes(n_leads=12, L=1000)[1]
    assert 0 < chunked < 0.85 * one_chunk, (chunked, one_chunk)


def test_a_chunked_ptb_xl_length_step_keeps_one_qkv_weight_per_branch(monkeypatch):
    # The block joins each branch's [Wq|Wk|Wv] once for all its chunks, so four
    # chunks keep what one chunk keeps but for the chunks' small arrays
    # (19.18e6 against 19.15e6 bytes); a join per (branch, chunk) task kept
    # nine more (C, 3C) copies, 221,184 bytes.
    assert model.PREDICT_TOKEN_ROWS < 8 * 200
    chunked = _desk_train_step_bytes(n_leads=12, L=1000)[0]
    monkeypatch.setattr(model, "PREDICT_TOKEN_ROWS", 16 * 200)
    one_chunk = _desk_train_step_bytes(n_leads=12, L=1000)[0]
    assert chunked - one_chunk < 100e3, (chunked, one_chunk)


def test_train_loop_without_training_folds_is_a_data_error():
    ds = tiny_dataset(40)
    held_out = subset(ds, ds.folds > 8)
    with pytest.raises(DataError, match="training folds 1-8 are empty"):
        train_loop(TINY, init_params(TINY, seed=0), held_out, TrainConfig(max_epochs=1))
