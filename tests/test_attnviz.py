import dataclasses
import json

import numpy as np
import pytest

from mswecg.attnviz import (
    build_dump,
    dump_for_record,
    expand_to_samples,
    export,
    fuse_scores,
    lead_svg,
    minmax_normalize,
    score_color,
    token_scores,
)
from mswecg.config import MswConfig
from mswecg.data import SynthSpec, standardize, synth_generate
from mswecg.errors import DimensionError, NumericError
from mswecg.model import forward
from mswecg.params import init_params

CFG = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)


def fitted_record_and_params(seed=0):
    ds = synth_generate(SynthSpec(seed=seed, n_records=20, n_leads=2, L=40))
    return (ds.ids[0], standardize(ds)[0]), init_params(CFG, seed=seed)


# ---------------------------------------------------------------------------
# token scores


def test_token_scores_uniform_attention():
    n_w, heads, M = 4, 2, 3
    attn = np.full((n_w, heads, M, M), 1.0 / M)
    scores = token_scores(attn, shift=0, T=n_w * M)
    assert np.allclose(scores, 1.0 / M)


def test_token_scores_m1_windows():
    attn = np.ones((6, 2, 1, 1))
    assert np.allclose(token_scores(attn, shift=0, T=6), 1.0)


def test_token_scores_two_window_hand_case():
    # window 0: all attention on column 1; window 1: uniform
    attn = np.zeros((2, 1, 2, 2))
    attn[0, 0] = [[0.0, 1.0], [0.0, 1.0]]
    attn[1, 0] = [[0.5, 0.5], [0.5, 0.5]]
    scores = token_scores(attn, shift=0, T=4)
    # column means: window 0 -> [0, 1], window 1 -> [0.5, 0.5]
    assert np.allclose(scores, [0.0, 1.0, 0.5, 0.5])


def test_token_scores_undo_shift():
    attn = np.zeros((2, 1, 2, 2))
    attn[0, 0] = [[0.0, 1.0], [0.0, 1.0]]
    attn[1, 0] = [[0.5, 0.5], [0.5, 0.5]]
    rotated = token_scores(attn, shift=0, T=4)
    undone = token_scores(attn, shift=1, T=4)
    assert np.allclose(undone, np.roll(rotated, 1))


def test_token_scores_shape_check():
    with pytest.raises(DimensionError):
        token_scores(np.zeros((2, 1, 3, 3)), shift=0, T=4)


# ---------------------------------------------------------------------------
# normalization and fusion


def test_minmax_maps_extremes():
    v = np.array([2.0, 4.0, 3.0])
    out = minmax_normalize(v)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.allclose(out, [0.0, 1.0, 0.5])


def test_minmax_constant_is_half():
    assert np.allclose(minmax_normalize(np.full(5, 3.3)), 0.5)


def test_fuse_scores_identical_branches():
    v = np.array([0.1, 0.9, 0.4])
    out = fuse_scores([v.copy(), v.copy(), v.copy()], np.array([0.2, 0.3, 0.5]))
    assert np.allclose(out, minmax_normalize(v))


def test_fuse_scores_one_hot_beta():
    rng = np.random.default_rng(0)
    branches = [rng.random(6) for _ in range(3)]
    out = fuse_scores(branches, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out, minmax_normalize(branches[1]))


def test_fuse_scores_random_case_matches_scalar_recompute():
    rng = np.random.default_rng(1)
    branches = [rng.random(8) for _ in range(3)]
    beta = rng.random(3)
    beta = beta / beta.sum()
    out = fuse_scores(branches, beta)
    manual = np.zeros(8)
    for w, s in zip(beta, branches):
        lo, hi = s.min(), s.max()
        manual += w * (s - lo) / (hi - lo)
    lo, hi = manual.min(), manual.max()
    assert np.allclose(out, (manual - lo) / (hi - lo), atol=1e-12)


def test_fuse_scores_length_mismatch():
    with pytest.raises(DimensionError):
        fuse_scores([np.zeros(3), np.zeros(4)], np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# sample expansion


def test_expand_identity_for_p1():
    v = np.array([0.1, 0.2])
    assert np.array_equal(expand_to_samples(v, 1), v)


def test_expand_repeats():
    assert expand_to_samples(np.array([0.0, 1.0]), 3).tolist() == [0, 0, 0, 1, 1, 1]


def test_expand_round_trip_mean_pool():
    rng = np.random.default_rng(2)
    scores = rng.random(7)
    expanded = expand_to_samples(scores, 4)
    pooled = expanded.reshape(7, 4).mean(axis=1)
    assert np.allclose(pooled, scores, atol=1e-15)


# ---------------------------------------------------------------------------
# dump assembly and export


def test_dump_shapes_and_row_sums():
    (record_id, signal), params = fitted_record_and_params()
    dump = dump_for_record(record_id, signal, CFG, params)
    assert dump.record_id == record_id
    assert dump.beta.shape == (CFG.n_branches,)
    assert dump.fused_token_scores.shape == (CFG.tokens,)
    assert dump.fused_sample_scores.shape == (CFG.L,)
    assert dump.fused_sample_scores.min() >= 0.0 and dump.fused_sample_scores.max() <= 1.0
    for br, M in zip(dump.branches, CFG.windows):
        assert br.M == M and len(br.windows) == CFG.tokens // M
        for w_idx, win in enumerate(br.windows):
            assert win.start_patch == (w_idx * M) % CFG.tokens
            assert np.abs(win.attn.sum(axis=-1) - 1.0).max() <= 1e-12


def test_dump_of_a_shifted_model_takes_the_shift_from_the_config():
    cfg = dataclasses.replace(CFG, shift=1)
    (record_id, signal), params = fitted_record_and_params(seed=6)
    res = forward(signal, cfg, params)
    dump = build_dump(record_id, res, cfg)
    T = cfg.tokens
    for i, (br, M) in enumerate(zip(dump.branches, cfg.windows)):
        assert (br.M, br.shift) == (M, 1)
        assert [win.start_patch for win in br.windows] == [(w * M + 1) % T
                                                           for w in range(T // M)]
        assert np.array_equal(br.token_scores, token_scores(res.attn[i], 1, T))


def test_forward_gives_build_dump_every_branch_unless_asked_for_no_maps():
    (record_id, signal), params = fitted_record_and_params(seed=7)
    res = forward(signal, CFG, params)  # the default asks for every branch's maps
    dump = build_dump(record_id, res, CFG)
    assert [br.M for br in dump.branches] == list(CFG.windows)
    lean = forward(signal, CFG, params, maps=False)
    assert lean.attn == ()
    assert lean.probs.tobytes() == res.probs.tobytes()
    assert lean.beta.tobytes() == res.beta.tobytes()


def test_dump_rejects_non_finite_attention_naming_branch_and_window():
    (record_id, signal), params = fitted_record_and_params(seed=2)
    params["branch1.attn.Wq"][0, 0] = np.nan
    with pytest.raises(NumericError, match=r"branch M=4: non-finite attention in window 0"):
        dump_for_record(record_id, signal, CFG, params)


def test_scores_invariant_to_batch_composition():
    _, params = fitted_record_and_params(seed=3)
    view = standardize(synth_generate(SynthSpec(seed=3, n_records=20, n_leads=2, L=40)))
    solo = forward(view[0], CFG, params)
    batch = forward(view[np.arange(4)], CFG, params)
    solo_dump = build_dump("x", solo, CFG)
    for attn_solo, attn_batch in zip(solo.attn, batch.attn):
        assert np.allclose(attn_solo, attn_batch[0], atol=1e-12)
    assert np.allclose(solo.probs, batch.probs[0], atol=1e-12)
    assert solo_dump.fused_sample_scores.shape == (CFG.L,)


def test_json_round_trip_numerics(tmp_path):
    (record_id, signal), params = fitted_record_and_params(seed=4)
    dump = dump_for_record(record_id, signal, CFG, params)
    written = export(dump, signal, tmp_path, leads=())
    assert len(written) == 1 and written[0].suffix == ".json"
    parsed = json.loads(written[0].read_text())
    assert parsed["record_id"] == record_id
    assert np.abs(np.array(parsed["beta"]) - dump.beta).max() < 1e-9
    assert np.abs(
        np.array(parsed["fused_sample_scores"]) - dump.fused_sample_scores
    ).max() < 1e-9
    attn_back = np.array(parsed["branches"][0]["windows"][0]["attn"])
    assert np.abs(attn_back - dump.branches[0].windows[0].attn).max() < 1e-9


def test_export_svg_per_lead(tmp_path):
    (record_id, signal), params = fitted_record_and_params(seed=5)
    dump = dump_for_record(record_id, signal, CFG, params)
    written = export(dump, signal, tmp_path, leads=(0, 1))
    names = sorted(p.name for p in written)
    assert names == sorted(
        [f"{record_id}.json", f"{record_id}_lead0.svg", f"{record_id}_lead1.svg"]
    )
    svg = (tmp_path / f"{record_id}_lead0.svg").read_text()
    assert svg.startswith("<svg") and 'viewBox="0 0 1200 200"' in svg
    assert svg.count("<line") == CFG.L - 1


def test_constant_scores_single_color():
    samples = np.sin(np.linspace(0, 6, 50))
    svg = lead_svg(samples, np.full(50, 0.5))
    colors = {part.split('stroke="')[1].split('"')[0]
              for part in svg.split("\n") if "stroke=" in part}
    assert colors == {score_color(0.5)}


def test_colormap_endpoints():
    assert score_color(0.0) == "rgb(0,0,255)"
    assert score_color(1.0) == "rgb(255,0,0)"
