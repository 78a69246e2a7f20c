import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswecg.metrics import EvalBatch, evaluate
from util import loop_accuracy, loop_macro_f1, loop_samples_f1, pairwise_auc


def batch(scores, labels, **kw):
    return EvalBatch(scores=np.asarray(scores, dtype=float), labels=np.asarray(labels), **kw)


def random_batch(rng, b=8, k=4):
    return batch(rng.random((b, k)), (rng.random((b, k)) < 0.5).astype(int))


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_perfect_and_flipped():
    y = np.array([[1, 0], [0, 1]])
    assert evaluate(batch(y.astype(float), y)).accuracy == 1.0
    assert evaluate(batch(1.0 - y, y)).accuracy == 0.0


def test_accuracy_hand_case():
    labels = np.array([[1, 0], [0, 1]])
    preds = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert evaluate(batch(preds, labels)).accuracy == pytest.approx(3 / 4)


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        evaluate(batch(np.zeros((0, 2)), np.zeros((0, 2), dtype=int))).accuracy


# ---------------------------------------------------------------------------
# F1


def test_macro_f1_perfect():
    y = np.array([[1, 0], [0, 1], [1, 1]])
    assert evaluate(batch(y.astype(float), y)).macro_f1 == 1.0


def test_macro_f1_absent_class_contributes_zero():
    labels = np.array([[1, 0], [1, 0]])
    scores = np.array([[1.0, 0.0], [1.0, 0.0]])
    # class 1 never present, never predicted: contributes 0 by convention
    report = evaluate(batch(scores, labels))
    assert report.macro_f1 == pytest.approx(0.5)
    assert report.degenerate_f1_classes == 1


def test_macro_f1_hand_case():
    # per class TP=1, FP=1, FN=1 -> P = R = 0.5 -> F1 = 0.5
    labels = np.array([[1, 1], [1, 1], [0, 0]])
    scores = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    assert evaluate(batch(scores, labels)).macro_f1 == pytest.approx(0.5)


def test_samples_f1_hand_case():
    labels = np.array([[1, 1, 0]])
    scores = np.array([[1.0, 0.0, 0.0]])
    assert evaluate(batch(scores, labels)).samples_f1 == pytest.approx(2 / 3)


def test_samples_f1_all_empty_is_one():
    labels = np.zeros((3, 4), dtype=int)
    scores = np.zeros((3, 4))
    report = evaluate(batch(scores, labels))
    assert report.samples_f1 == 1.0
    assert report.empty_correct_samples == 3


def test_f1_matches_loop_oracles_on_random_batches():
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = random_batch(rng)
        report = evaluate(b)
        assert report.macro_f1 == pytest.approx(loop_macro_f1(b.scores, b.labels), abs=1e-15)
        assert report.samples_f1 == pytest.approx(loop_samples_f1(b.scores, b.labels), abs=1e-15)
        assert report.accuracy == pytest.approx(loop_accuracy(b.scores, b.labels), abs=1e-15)


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_ranking():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    labels = np.array([[1], [1], [0], [0]])
    assert evaluate(batch(scores, labels)).auc_macro == 1.0


def test_auc_all_ties_is_half():
    scores = np.full((6, 1), 0.5)
    labels = np.array([[1], [0], [1], [0], [1], [0]])
    assert evaluate(batch(scores, labels)).auc_macro == 0.5


def test_auc_tie_case_matches_pairwise_oracle():
    scores = np.array([0.1, 0.4, 0.4, 0.4, 0.9])
    labels = np.array([0, 0, 1, 1, 1])
    ours = evaluate(batch(scores[:, None], labels[:, None])).auc_macro
    assert ours == pytest.approx(pairwise_auc(scores, labels), abs=1e-15)


def test_auc_matches_pairwise_oracle_on_random_batches():
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = random_batch(rng)
        for mode, axis_scores, axis_labels in (
            ("macro", b.scores.T, b.labels.T),
            ("samples", b.scores, b.labels),
        ):
            vals = [pairwise_auc(s, l) for s, l in zip(axis_scores, axis_labels)]
            vals = [v for v in vals if v is not None]
            auc = getattr(evaluate(b), f"auc_{mode}")
            if vals:
                assert auc == pytest.approx(float(np.mean(vals)), abs=1e-12)
            else:
                assert auc is None


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    scores = rng.random((12, 3))
    labels = (rng.random((12, 3)) < 0.4).astype(int)
    base = evaluate(batch(scores, labels))
    warped = evaluate(batch(scores**3, labels))  # strictly monotone on [0, 1]
    assert warped.auc_macro == pytest.approx(base.auc_macro, abs=1e-15)
    assert warped.auc_samples == pytest.approx(base.auc_samples, abs=1e-15)


def test_auc_degenerate_units_skipped_and_counted():
    scores = np.array([[0.9, 0.5], [0.1, 0.5]])
    labels = np.array([[1, 1], [0, 1]])  # class 1 has no negative
    report = evaluate(batch(scores, labels))
    assert report.auc_macro == 1.0
    assert report.skipped_auc_classes == 1


def test_auc_undefined_raises():
    scores = np.array([[0.9], [0.1]])
    labels = np.array([[1], [1]])
    assert evaluate(batch(scores, labels)).auc_macro is None  # undefined: no unit to average


# ---------------------------------------------------------------------------
# invariances and the report


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_sample_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    b = random_batch(rng, 10, 3)
    perm = rng.permutation(10)
    permuted = batch(b.scores[perm], b.labels[perm])
    assert evaluate(permuted).macro_f1 == pytest.approx(evaluate(b).macro_f1, abs=1e-15)
    assert evaluate(permuted).samples_f1 == pytest.approx(evaluate(b).samples_f1, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_class_permutation_invariance_of_macro_f1(seed):
    rng = np.random.default_rng(seed)
    b = random_batch(rng, 10, 4)
    perm = rng.permutation(4)
    permuted = batch(b.scores[:, perm], b.labels[:, perm])
    assert evaluate(permuted).macro_f1 == pytest.approx(evaluate(b).macro_f1, abs=1e-15)


def test_all_metrics_in_unit_interval_and_perfect_is_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = random_batch(rng)
        report = evaluate(b)
        for value in (report.accuracy, report.macro_f1, report.samples_f1):
            assert 0.0 <= value <= 1.0
        for value in (report.auc_macro, report.auc_samples):
            assert value is None or 0.0 <= value <= 1.0
    y = (rng.random((6, 3)) < 0.5).astype(int)
    y[0] = [1, 0, 1]  # ensure both polarities exist somewhere
    y[1] = [0, 1, 0]
    perfect = evaluate(batch(y.astype(float), y))
    assert perfect.accuracy == 1.0 and perfect.macro_f1 == 1.0 and perfect.samples_f1 == 1.0
    assert perfect.auc_macro == 1.0 and perfect.auc_samples == 1.0


def test_report_serializes_with_fixed_keys():
    rng = np.random.default_rng(10)
    report = evaluate(random_batch(rng))
    data = report.to_dict()
    for key in ("accuracy", "macro_f1", "samples_f1", "auc_macro", "auc_samples",
                "threshold", "accuracy_mode"):
        assert key in data
    assert json.dumps(data).startswith("{")


def test_eval_batch_validation():
    with pytest.raises(ValueError):
        batch(np.array([[1.5]]), np.array([[1]]))
    with pytest.raises(ValueError):
        batch(np.array([[0.5]]), np.array([[2]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_batch_rejects_non_finite_scores_with_coordinates(bad):
    scores = np.full((3, 2), 0.5)
    scores[2, 1] = bad
    scores[1, 0] = 2.0  # out of range, but the non-finite entry is named
    with pytest.raises(ValueError, match=r"finite.*row 2, class 1"):
        batch(scores, np.zeros((3, 2), dtype=int))
