"""Every field of the one-pass metric report against element-loop oracles,
on batches of PTB-XL task sizes whose scores tie often."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mswecg.metrics import EvalBatch, evaluate
from util import loop_report


def _assert_matches_loops(scores, labels, tau):
    batch = EvalBatch(scores=scores, labels=labels, threshold=tau)
    report = evaluate(batch).to_dict()
    assert report == loop_report(scores, labels, tau)
    return report


@st.composite
def tied_batches(draw):
    """(scores rounded to 1 or 2 decimals, labels, threshold), with some
    columns and rows forced to constant labels and scores."""
    b, k = draw(st.integers(1, 300)), draw(st.integers(1, 44))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = np.round(rng.random((b, k)), draw(st.sampled_from([1, 2])))
    labels = (rng.random((b, k)) < draw(st.floats(0.02, 0.98))).astype(np.int64)

    def force(at):
        labels[at] = draw(st.integers(0, 1))
        if draw(st.booleans()):
            scores[at] = draw(st.sampled_from([0.0, 0.5, 1.0]))

    for _ in range(draw(st.integers(0, 3))):
        force((slice(None), draw(st.integers(0, k - 1))))  # a column
    for _ in range(draw(st.integers(0, 3))):
        force(draw(st.integers(0, b - 1)))  # a row
    return scores, labels, draw(st.sampled_from([0.5, 0.25]))


@settings(max_examples=40, deadline=None)
@given(case=tied_batches())
def test_report_equals_loop_oracles_on_tied_batches(case):
    _assert_matches_loops(*case)


def test_report_counts_every_degenerate_case():
    scores = np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.2], [0.0, 0.2, 0.2], [0.0, 0.7, 0.7]])
    labels = np.array([[0, 1, 1], [0, 1, 0], [0, 0, 0], [0, 0, 1]])
    report = _assert_matches_loops(scores, labels, 0.5)
    # Class 0 and row 2 have no label and no decision: a 0/0 class, an
    # empty-correct sample, and one skipped AUC unit each.
    assert report["degenerate_f1_classes"] == 1
    assert report["empty_correct_samples"] == 1
    assert report["skipped_auc_classes"] == 1
    assert report["skipped_auc_samples"] == 1
    labels[1] = [0, 0, 1]  # row 1 now has a truth and a decision but no hit
    assert _assert_matches_loops(scores, labels, 0.5)["zero_denominator_samples"] == 1
