"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The learning and
ablation criteria train real models on the synthetic dataset and dominate
the runtime (a few minutes on one core).
"""

import time

import numpy as np
import pytest

from mswecg import tensor as tc
from mswecg.complexity import analytic_phases, measure_macs, omega_mswsa, sweep
from mswecg.config import MswConfig
from mswecg.data import SynthSpec, fold_masks, standardize, synth_generate
from mswecg.errors import AdmissibilityError
from mswecg.metrics import EvalBatch, evaluate
from mswecg.model import forward, msw_block, predict, window_partition
from mswecg.params import init_params, load_checkpoint
from mswecg.train import (
    TrainConfig,
    finite_difference_audit,
    format_metric_log,
    train_loop,
)
from util import (
    global_block_oracle,
    loop_accuracy,
    loop_macro_f1,
    loop_samples_f1,
    pairwise_auc,
)

AUDIT_CFG = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)
LEARN_CFG = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3,
                      attn_dropout=0.2)
DATA_SEED = 20250809


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def learn_dataset():
    # 750 records split 600/75/75 by the round-robin folds.
    return synth_generate(SynthSpec(seed=DATA_SEED, n_records=750))


def _train_and_test_f1(cfg, dataset, seed, max_epochs):
    result = train_loop(cfg, init_params(cfg, seed=seed), dataset,
                        TrainConfig(max_epochs=max_epochs, batch_size=16, lr0=1e-4,
                                    seed=seed))
    test = np.flatnonzero(fold_masks(dataset)[2])
    probs = predict(standardize(dataset), cfg, result.best_params, rows=test)
    return evaluate(EvalBatch(scores=probs, labels=dataset.labels[test])).macro_f1


def test_criterion_1_gradient_audit():
    rng = np.random.default_rng(1)
    params = init_params(AUDIT_CFG, seed=1)
    signals = rng.normal(size=(2, AUDIT_CFG.n_leads, AUDIT_CFG.L))
    labels = (rng.random((2, AUDIT_CFG.K)) < 0.5).astype(np.float64)
    start = time.monotonic()
    worst, per_param = finite_difference_audit(AUDIT_CFG, params, signals, labels, step=1e-5)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"max rel grad error {worst:.3e} over {len(per_param)} parameters "
                  f"(tolerance 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_2_window_global_equivalence():
    T = 8
    cfg = MswConfig(L=16, n_leads=2, P=2, C=8, heads=2, windows=(T,), K=2,
                    shift=0, attn_dropout=0.0)
    rng = np.random.default_rng(2)
    params = init_params(cfg, seed=2)
    params["branch0.attn.bias"].data[:] = rng.normal(size=(cfg.heads, 2 * T - 1))
    raw = {leaf: params[f"branch0.{leaf}"].data for leaf in (
        "ln1.gamma", "ln1.beta", "attn.Wq", "attn.Wk", "attn.Wv", "attn.Wz",
        "attn.bias", "ln2.gamma", "ln2.beta", "mlp.W1", "mlp.b1", "mlp.W2", "mlp.b2",
    )}
    worst = 0.0
    for _ in range(20):
        tokens = rng.normal(size=(T, cfg.C))
        ours = msw_block(tc.tensor(tokens), cfg, params)[0].data[0]
        oracle = global_block_oracle(tokens, raw, cfg.heads)
        worst = max(worst, float(np.abs(ours - oracle).max()))
    report(2, worst < 1e-10,
           f"single-window (M=T) block vs independent global-attention layer: "
           f"max |delta| {worst:.2e} over 20 inputs (< 1e-10)")


def test_criterion_3_complexity_reconciliation():
    cases = [
        (8, 4, (2,)),
        (8, 4, (8,)),
        (12, 6, (2, 3)),
        (24, 8, (2, 4, 6)),
        (40, 16, (5, 10, 20)),
        (16, 2, (1, 2, 4, 8)),
    ]
    exact = True
    for tokens, channels, windows in cases:
        rep = measure_macs(tokens, channels, windows)
        exact &= rep.measured == analytic_phases(tokens, channels, windows)
        exact &= sum(rep.measured.values()) == omega_mswsa(tokens, channels, windows)
    first = measure_macs(8, 4, (2,))
    exact &= sum(first.measured.values()) == 640
    (row,) = sweep([1000], 12, (5, 10, 20))
    exact &= row[1] == 24_576_000 and row[2] == 1_416_000
    ratio_ok = abs(row[3] - 17.36) < 0.01
    report(3, exact and ratio_ok,
           f"instrumented MACs equal analytic counts on {len(cases)} configs "
           f"(incl. 8/4/{{2}} -> 640); 24,576,000 vs 1,416,000 at L=1000 "
           f"(ratio {row[3]:.2f})")


def test_criterion_4_admissibility_exhaustive():
    checked = accepted = rejected = 0
    ok = True
    for T in range(1, 65):
        tokens = np.zeros((T, 2))
        for M in range(1, T + 1):
            checked += 1
            if T % M == 0:
                wins = window_partition(tokens, M, 0)
                ok &= wins.shape == (T // M, M, 2)
                accepted += 1
            else:
                try:
                    window_partition(tokens, M, 0)
                    ok = False
                except AdmissibilityError:
                    rejected += 1
                # config construction rejects it too, before any compute
                try:
                    MswConfig(L=T, n_leads=1, P=1, C=4, heads=2, windows=(M,), K=2)
                    ok = False
                except AdmissibilityError:
                    pass
    report(4, ok, f"all {checked} (T, M) pairs with T <= 64: {accepted} divisor pairs "
                  f"accepted, {rejected} non-divisors rejected before compute")


def test_criterion_5_normalization_invariants():
    cfg = MswConfig(L=16, n_leads=2, P=2, C=8, heads=2, windows=(2, 4), K=2)
    rng = np.random.default_rng(5)
    worst_row = worst_beta = 0.0
    params = None
    for i in range(1000):
        if i % 100 == 0:
            params = init_params(cfg, seed=int(rng.integers(2**31)))
            for b in range(cfg.n_branches):
                table = params[f"branch{b}.attn.bias"]
                table.data[:] = rng.normal(size=table.shape)
        res = forward(rng.normal(size=(cfg.n_leads, cfg.L)), cfg, params)
        for attn in res.attn:
            worst_row = max(worst_row,
                            float(np.abs(attn.sum(axis=-1) - 1.0).max()))
        worst_beta = max(worst_beta, abs(float(res.beta.sum()) - 1.0))

    worst_shift = 0.0
    for trial in range(10):
        params = init_params(cfg, seed=trial)
        for b in range(cfg.n_branches):
            table = params[f"branch{b}.attn.bias"]
            table.data[:] = rng.normal(size=table.shape)
        sig = rng.normal(size=(cfg.n_leads, cfg.L))
        before = [attn.copy() for attn in forward(sig, cfg, params).attn]
        for b in range(cfg.n_branches):
            params[f"branch{b}.attn.bias"].data += 7.5
        after = forward(sig, cfg, params).attn
        for x, y in zip(before, after):
            worst_shift = max(worst_shift, float(np.abs(x - y).max()))
    ok = worst_row <= 1e-12 and worst_beta <= 1e-12 and worst_shift <= 1e-12
    report(5, ok, f"1000 forward passes: attention row sums off by <= {worst_row:.1e}, "
                  f"beta sums off by <= {worst_beta:.1e}; constant bias shift moves "
                  f"attention by <= {worst_shift:.1e} (all <= 1e-12)")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        scores = rng.random((8, 4))
        labels = (rng.random((8, 4)) < 0.5).astype(int)
        rep = evaluate(EvalBatch(scores=scores, labels=labels))
        ok &= rep.macro_f1 == loop_macro_f1(scores, labels)
        ok &= rep.samples_f1 == loop_samples_f1(scores, labels)
        ok &= rep.accuracy == loop_accuracy(scores, labels)
        for mode, rows_s, rows_l in (("macro", scores.T, labels.T),
                                     ("samples", scores, labels)):
            vals = [pairwise_auc(s, l) for s, l in zip(rows_s, rows_l)]
            vals = [v for v in vals if v is not None]
            if vals:
                ok &= getattr(rep, f"auc_{mode}") == float(np.mean(vals))
            else:
                ok &= getattr(rep, f"auc_{mode}") is None
        warped = evaluate(EvalBatch(scores=scores**3, labels=labels))
        ok &= abs(warped.auc_macro - rep.auc_macro) < 1e-15
        ok &= abs(warped.auc_samples - rep.auc_samples) < 1e-15
    report(6, ok, "accuracy/macro-F1/samples-F1/AUC match brute-force oracles exactly "
                  "on 100 random 8x4 batches; AUC invariant under monotone transforms")


def test_criterion_7_learning_on_synthetic_task(learn_dataset):
    start = time.monotonic()
    f1 = _train_and_test_f1(LEARN_CFG, learn_dataset, seed=0, max_epochs=30)
    elapsed = time.monotonic() - start
    ok = f1 >= 0.90 and elapsed < 15 * 60
    report(7, ok, f"600/75/75 synthetic task: test macro-F1 {f1:.4f} (>= 0.90) "
                  f"within 30 epochs in {elapsed:.0f}s (< 900s)")


def test_criterion_8_ablation_direction(learn_dataset):
    # Equal budget for every variant; seeds vary the init and batch order.
    epochs, seeds = 15, (0, 1, 2)
    scores = {}
    for windows in [(5,), (10,), (20,), (5, 10, 20)]:
        cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=windows, K=3)
        scores[windows] = float(np.mean(
            [_train_and_test_f1(cfg, learn_dataset, seed=s, max_epochs=epochs)
             for s in seeds]
        ))
    multi = scores[(5, 10, 20)]
    ok = all(multi >= scores[(m,)] - 0.02 for m in (5, 10, 20))
    detail = ", ".join(f"[{m}] {scores[(m,)]:.3f}" for m in (5, 10, 20))
    report(8, ok, f"3-window macro-F1 {multi:.3f} vs single-window {detail} "
                  f"(within -0.02, mean over {len(seeds)} seeds)")


def test_criterion_9_determinism_and_persistence(tmp_path):
    ds = synth_generate(SynthSpec(seed=9, n_records=40, n_leads=2, L=40))
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)
    tcfg = TrainConfig(max_epochs=3, batch_size=8, seed=9,
                       checkpoint=str(tmp_path / "best"))
    run_a = train_loop(cfg, init_params(cfg, seed=9), ds, tcfg)
    run_b = train_loop(cfg, init_params(cfg, seed=9), ds,
                       TrainConfig(max_epochs=3, batch_size=8, seed=9))
    logs_equal = format_metric_log(run_a.log) == format_metric_log(run_b.log)

    store, _ = load_checkpoint(tmp_path / "best")
    val = np.flatnonzero(fold_masks(ds)[1])
    probs = predict(standardize(ds), cfg, store, rows=val)
    y = ds.labels[val]
    rep = evaluate(EvalBatch(scores=probs, labels=y))
    logged = next(r for r in run_a.log if r.split == "val" and r.epoch == run_a.best_epoch)
    bitwise = (
        rep.macro_f1 == logged.macro_f1
        and rep.samples_f1 == logged.samples_f1
        and rep.accuracy == logged.accuracy
    )
    report(9, logs_equal and bitwise,
           f"same-seed logs identical: {logs_equal}; checkpoint round trip reproduces "
           f"validation metrics bitwise: {bitwise}")
