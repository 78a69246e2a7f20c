import dataclasses
import gc
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from mswecg import tensor as tc
from mswecg.config import MswConfig
from mswecg.errors import AdmissibilityError, DimensionError, NumericError
from mswecg import model
from mswecg.model import (
    PREDICT_TOKEN_ROWS,
    PREDICT_WORKERS,
    forward,
    fuse,
    linear_embed,
    msw_block,
    patch_split,
    predict,
    window_partition,
    window_unpartition,
)
from mswecg.params import init_params
from mswecg.train import AdamState, adam_step, bce_loss
import util as ref
from util import (attention, finite_diff_check, global_block_oracle, mlp_sublayer,
                  reference_branch, standardize, window_attention)

TINY = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)


# ---------------------------------------------------------------------------
# patch_split / linear_embed


def test_patch_split_full_scale_geometry():
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=512, K=5, heads=8)
    out = patch_split(np.zeros((12, 1000)), cfg)
    assert out.shape == (200, 60)


def test_patch_split_single_token():
    cfg = MswConfig(L=8, n_leads=3, P=8, C=4, heads=2, windows=(1,), K=2)
    sig = np.arange(24.0).reshape(3, 8)
    out = patch_split(sig, cfg)
    assert out.shape == (1, 24)
    assert np.array_equal(out[0], sig.reshape(-1))


def test_patch_split_lead_major_order():
    cfg = MswConfig(L=10, n_leads=2, P=5, C=4, heads=2, windows=(1, 2), K=2)
    sig = np.arange(20.0).reshape(2, 10)
    out = patch_split(sig, cfg)
    assert np.array_equal(out[0], np.concatenate([sig[0, :5], sig[1, :5]]))
    assert np.array_equal(out[1], np.concatenate([sig[0, 5:], sig[1, 5:]]))


def test_patch_split_shape_mismatch():
    with pytest.raises(DimensionError):
        patch_split(np.zeros((3, 40)), TINY)


def test_linear_embed_identity_and_bias():
    cfg = MswConfig(L=10, n_leads=2, P=5, C=10, heads=2, windows=(1, 2), K=2)
    patches = patch_split(np.arange(20.0).reshape(2, 10), cfg)
    w = tc.tensor(np.eye(10), requires_grad=False)
    b = tc.tensor(np.zeros(10))
    assert np.array_equal(linear_embed(patches, w, b).data, patches)
    bias = tc.tensor(np.arange(10.0))
    out = linear_embed(np.zeros_like(patches), w, bias)
    assert np.array_equal(out.data, np.tile(np.arange(10.0), (2, 1)))


def test_linear_embed_matches_matmul_oracle():
    rng = np.random.default_rng(0)
    patches = rng.normal(size=(6, 10))
    w = rng.normal(size=(10, 4))
    b = rng.normal(size=4)
    out = linear_embed(patches, tc.tensor(w), tc.tensor(b))
    assert np.allclose(out.data, patches @ w + b, atol=1e-12)


# ---------------------------------------------------------------------------
# window partition


def test_window_partition_covers_contiguous_patches():
    tokens = np.arange(200.0 * 3).reshape(200, 3)
    wins = window_partition(tokens, 5, 0)
    assert wins.shape == (40, 5, 3)
    for w in range(40):
        assert np.array_equal(wins[w], tokens[5 * w : 5 * w + 5])


def test_window_partition_single_window():
    tokens = np.random.default_rng(0).normal(size=(8, 2))
    wins = window_partition(tokens, 8, 0)
    assert wins.shape == (1, 8, 2)
    assert np.array_equal(wins[0], tokens)


def test_window_partition_rejects_nondivisor():
    with pytest.raises(AdmissibilityError, match="window scale 7"):
        window_partition(np.zeros((200, 3)), 7, 0)


@pytest.mark.parametrize("T,M,shift", [(12, 3, 0), (12, 3, 2), (12, 4, 1), (8, 8, 5), (6, 1, 0)])
def test_partition_unpartition_identity(T, M, shift):
    rng = np.random.default_rng(T + M + shift)
    tokens = rng.normal(size=(2, T, 4))
    back = window_unpartition(window_partition(tokens, M, shift), shift)
    assert np.array_equal(back, tokens)


def test_partition_shift_rotates_left():
    wins = window_partition(np.arange(6.0).reshape(6, 1), 3, 1)
    assert wins[0].ravel().tolist() == [1.0, 2.0, 3.0]
    assert wins[1].ravel().tolist() == [4.0, 5.0, 0.0]


# ---------------------------------------------------------------------------
# window attention: the fused sublayer x + attention(LN(x))


def _ln(x, eps=1e-5):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps)


def _attend(x, wq, wk, wv, wz, table, M, heads, **kw):
    """window_attention with unit LN gain and zero LN bias."""
    C = x.shape[-1]
    return window_attention(tc.tensor(x), tc.tensor(np.ones(C)), tc.tensor(np.zeros(C)),
                            wq, wk, wv, wz, table, M, heads, **kw)


def _bias_only_attention(table, M):
    """Attention maps (heads, M, M) of one window whose queries are all zero,
    so every score row is the relative-bias row."""
    heads = table.shape[0]
    C = 2 * heads
    zero, eye = tc.tensor(np.zeros((C, C))), tc.tensor(np.eye(C))
    x = np.random.default_rng(0).normal(size=(M, C))
    _, attn = _attend(x, zero, eye, eye, eye, table, M, heads)
    return attn.data[0]


def test_relative_bias_indexing():
    # Entry (i, j) reads the table at offset i - j + M - 1; a table with
    # distinct second differences makes every misread visible.
    M = 5
    table = (np.arange(9.0) - 4.0) ** 2 / 8.0
    attn = _bias_only_attention(tc.tensor(table.reshape(1, 9)), M)
    logits = np.log(attn[0])
    i, j = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    expected = table[i - j + M - 1] - table[M - 1]  # relative to the diagonal
    assert np.abs(logits - np.diag(logits)[:, None] - expected).max() <= 1e-12


def test_relative_offsets_are_built_once_per_scale_and_read_only():
    offs = model._relative_offsets(5)
    assert offs is model._relative_offsets(5)
    assert not offs.flags.writeable  # one array serves every call at this scale
    assert offs.tolist() == [[i - j + 4 for j in range(5)] for i in range(5)]


def test_relative_bias_m1():
    x = np.random.default_rng(1).normal(size=(3, 4))
    ws = [tc.tensor(np.eye(4)) for _ in range(4)]
    out_a, attn = _attend(x, *ws, tc.tensor(np.array([[2.5], [2.5]])), 1, 2)
    out_b, _ = _attend(x, *ws, tc.tensor(np.array([[-7.0], [0.0]])), 1, 2)
    assert attn.shape == (3, 2, 1, 1) and np.array_equal(attn.data, np.ones((3, 2, 1, 1)))
    assert np.array_equal(out_a.data, out_b.data)


def test_relative_bias_wrong_width():
    ws = [tc.tensor(np.eye(4)) for _ in range(4)]
    with pytest.raises(DimensionError, match="table"):
        _attend(np.zeros((10, 4)), *ws, tc.tensor(np.zeros((2, 8))), 5, 2)


def test_relative_bias_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    ws = [tc.tensor(rng.normal(size=(4, 4))) for _ in range(4)]
    err = finite_diff_check(lambda t: _attend(x, *ws, t, 3, 2)[0], [(2, 5)], seed=1)
    assert err < 1e-4


def test_constant_bias_table_means_unbiased_attention():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 8))
    ws = [tc.tensor(rng.normal(size=(8, 8))) for _ in range(4)]
    zero = tc.tensor(np.zeros((2, 7)))
    const = tc.tensor(np.full((2, 7), 3.7))
    _, attn0 = _attend(x, *ws, zero, 4, 2)
    _, attn1 = _attend(x, *ws, const, 4, 2)
    assert np.abs(attn0.data - attn1.data).max() <= 1e-12


def _rand_weights(rng, C, heads, M):
    return (
        tc.tensor(rng.normal(size=(C, C))),
        tc.tensor(rng.normal(size=(C, C))),
        tc.tensor(rng.normal(size=(C, C))),
        tc.tensor(rng.normal(size=(C, C))),
        tc.tensor(rng.normal(size=(heads, 2 * M - 1))),
    )


def test_attention_m1_ignores_bias():
    rng = np.random.default_rng(0)
    wq, wk, wv, wz, bias = _rand_weights(rng, 4, 2, 1)
    x = rng.normal(size=(3, 4))  # three windows of one token
    out, attn = _attend(x, wq, wk, wv, wz, bias, 1, 2)
    assert np.allclose(attn.data, 1.0)
    expected = x + (_ln(x) @ wv.data) @ wz.data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_zero_query_is_uniform():
    rng = np.random.default_rng(1)
    C, heads, M = 8, 2, 4
    wq = tc.tensor(np.zeros((C, C)))
    wk = tc.tensor(rng.normal(size=(C, C)))
    wv = tc.tensor(rng.normal(size=(C, C)))
    wz = tc.tensor(rng.normal(size=(C, C)))
    bias = tc.tensor(np.zeros((heads, 2 * M - 1)))
    x = rng.normal(size=(1, M, C))
    out, attn = _attend(x, wq, wk, wv, wz, bias, M, heads)
    assert np.abs(attn.data - 1.0 / M).max() <= 1e-12
    v = _ln(x[0]) @ wv.data
    expected = x[0] + np.tile(v.mean(axis=0), (M, 1)) @ wz.data
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_attention_hand_case_m2_one_head():
    # Scalar arithmetic oracle, one head of width d = C = 2.  The tokens
    # (1, 3) and (4, 2) normalize to (-r, r) and (r, -r); the diagonal
    # weights below read only their first coordinate.
    r = 1.0 / np.sqrt(1.0 + 1e-5)
    wq = tc.tensor(np.diag([2.0, 0.0]))
    wk = tc.tensor(np.diag([1.0, 0.0]))
    wv = tc.tensor(np.diag([3.0, 0.0]))
    wz = tc.tensor(np.diag([2.0, 0.0]))
    bias = tc.tensor([[0.5, 0.0, -0.5]])
    x = np.array([[1.0, 3.0], [4.0, 2.0]])
    out, attn = _attend(x, wq, wk, wv, wz, bias, 2, 1)
    q = np.array([-2.0 * r, 2.0 * r])
    k = np.array([-r, r])
    v = np.array([-3.0 * r, 3.0 * r])
    s = 1.0 / np.sqrt(2.0)
    # offsets: i - j = -1 reads table[0] = +0.5, +1 reads table[2] = -0.5
    scores = np.array(
        [
            [q[0] * k[0] * s + 0.0, q[0] * k[1] * s + 0.5],
            [q[1] * k[0] * s - 0.5, q[1] * k[1] * s + 0.0],
        ]
    )
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    expected = x + np.stack([(a @ v) * 2.0, np.zeros(2)], axis=1)
    assert np.allclose(attn.data[0, 0], a, atol=1e-12)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    wq, wk, wv, wz, bias = _rand_weights(rng, 8, 4, 5)
    x = rng.normal(size=(2, 15, 8))
    _, attn = _attend(x, wq, wk, wv, wz, bias, 5, 4)
    assert attn.shape == (2, 3, 4, 5, 5)
    assert np.abs(attn.data.sum(axis=-1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# Fused sublayers against finite differences and the unfused composition


_ATTENTION_FD_CASES = [  # (M, shift, attn_dropout) at T = 4
    (2, 0, 0.0),
    (2, 1, 0.0),
    (1, 0, 0.0),
    (4, 0, 0.0),
    (4, 3, 0.0),
    (2, 1, 0.3),
]


@pytest.mark.parametrize("M,shift,p", _ATTENTION_FD_CASES,
                         ids=[f"M{m}-shift{s}-drop{p}" for m, s, p in _ATTENTION_FD_CASES])
def test_window_attention_matches_finite_differences(M, shift, p):
    T, C, heads = 4, 4, 2
    uniforms = np.random.default_rng(7).random((2, T // M, heads, M, M))  # one mask for all probes

    def build(x, gamma, beta, wq, wk, wv, wz, table):
        return window_attention(x, gamma, beta, wq, wk, wv, wz, table, M, heads, shift,
                                attn_dropout=p, train=p > 0, uniforms=uniforms)[0]

    shapes = [(2, T, C), (C,), (C,), (C, C), (C, C), (C, C), (C, C), (heads, 2 * M - 1)]
    assert finite_diff_check(build, shapes, seed=M + shift) < 1e-4


def test_mlp_sublayer_matches_finite_differences():
    C, H = 4, 8
    shapes = [(2, 3, C), (C,), (C,), (C, H), (H,), (H, C), (C,)]
    assert finite_diff_check(mlp_sublayer, shapes, seed=3) < 1e-4


_REFERENCE_CASES = [  # (windows, shift, attn_dropout) at T = 8
    ((2, 4), 0, 0.0),
    ((2, 4), 1, 0.0),
    ((1, 8), 0, 0.0),
    ((2, 4, 8), 1, 0.3),
]


@pytest.mark.parametrize("windows,shift,p", _REFERENCE_CASES,
                         ids=[f"{w}-shift{s}-drop{p}" for w, s, p in _REFERENCE_CASES])
def test_block_matches_the_unfused_composition(windows, shift, p):
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=windows, K=3, shift=shift,
                    attn_dropout=p)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(0)
    for _, t in params.items():
        t.data[...] = rng.normal(size=t.shape) * 0.5
    x = tc.Tensor(rng.normal(size=(3, cfg.tokens, cfg.C)), requires_grad=True)
    probes = [rng.normal(size=x.shape) for _ in windows]

    def grads(loss):
        params.zero_grads()
        x.grad = None
        tc.backward(loss)
        return {"x": x.grad, **{n: t.grad for n, t in params.items() if t.grad is not None}}

    stacked, attns = msw_block(x, cfg, params, train=p > 0, rng=np.random.default_rng(5))
    # The block's recorded output stacks the branches' tokens on a leading axis.
    fused_grads = grads(ref.sum(ref.mul(stacked, np.stack(probes))))
    ref_rng = np.random.default_rng(5)
    unfused = [reference_branch(x, lambda leaf, i=i: params[f"branch{i}.{leaf}"], M,
                                cfg.heads, shift, p, p > 0, ref_rng)
               for i, M in enumerate(windows)]
    ref_grads = grads(ref.sum(ref.concat([ref.mul(y, w) for (y, _), w in zip(unfused, probes)],
                                         0)))
    for tokens, ours, (y, attn) in zip(stacked.data, attns, unfused):
        assert np.abs(tokens - y.data).max() <= 1e-12
        assert np.abs(ours - attn.data).max() <= 1e-12
    assert fused_grads.keys() == ref_grads.keys()
    for name in ref_grads:
        assert np.abs(fused_grads[name] - ref_grads[name]).max() <= 1e-10, name


def test_block_gradients_equal_one_tape_of_its_branch_ops_bitwise():
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3, shift=1,
                    attn_dropout=0.2)
    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(3)
    x = tc.Tensor(rng.normal(size=(4, cfg.tokens, cfg.C)), requires_grad=True)
    probes = rng.normal(size=(cfg.n_branches, *x.shape))

    def grads(loss):
        params.zero_grads()
        x.grad = None
        tc.backward(loss)
        return {"x": x.grad, **{n: t.grad for n, t in params.items() if t.grad is not None}}

    stacked, _ = msw_block(x, cfg, params, train=True, rng=np.random.default_rng(4))
    pooled = grads(ref.sum(ref.mul(stacked, probes)))
    # The same fused ops recorded on one tape, one branch after another, all
    # reading one standardization of x (LN1's rows).
    masks, ys, xhat = np.random.default_rng(4), [], standardize(x)
    for i, M in enumerate(cfg.windows):
        p = [params[f"branch{i}.{leaf}"] for leaf in model._BRANCH_LEAVES]
        a, _ = attention(xhat, *p[:7], M, cfg.heads, cfg.shift, attn_dropout=cfg.attn_dropout,
                         train=True, uniforms=masks.random((4, cfg.tokens // M, cfg.heads, M, M)))
        ys.append(mlp_sublayer(ref.add(x, a), *p[7:]))
    one_tape = grads(ref.sum(ref.concat([ref.mul(y, w) for y, w in zip(ys, probes)], 0)))
    assert np.array_equal(stacked.data, np.stack([y.data for y in ys]))
    assert pooled.keys() == one_tape.keys()
    for name in pooled:
        assert np.array_equal(pooled[name], one_tape[name]), name


def test_a_training_step_standardizes_the_block_input_once(monkeypatch):
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3, shift=1,
                    attn_dropout=0.2)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    sig = rng.normal(size=(16, cfg.n_leads, cfg.L))
    labels = (rng.random((16, cfg.K)) < 0.5).astype(np.float64)
    standardize, standardize_grad = model._standardize, model._standardize_grad
    rows, grad_rows = [], []  # the rows each standardization gave; those each gradient step read

    def counted(x):
        xhat, inv = standardize(x)
        rows.append(xhat)
        return xhat, inv

    def counted_grad(dxhat, xhat, inv):
        grad_rows.append(xhat)
        return standardize_grad(dxhat, xhat, inv)

    monkeypatch.setattr(model, "_standardize", counted)
    monkeypatch.setattr(model, "_standardize_grad", counted_grad)
    res = forward(sig, cfg, params, train=True, rng=np.random.default_rng(2))
    # LN1 once, before any branch runs, then each branch's LN2.
    assert len(rows) == 1 + cfg.n_branches
    params.zero_grads()
    tc.backward(bce_loss(res.probs, labels))
    assert len(grad_rows) == 1 + cfg.n_branches
    assert sum(r is rows[0] for r in grad_rows) == 1  # LN1's input-gradient step


def _fused_vs_reference(fused, reference, arrays):
    """(max |forward difference|, max |gradient difference|) between two ops
    run on fresh leaf tensors holding ``arrays``.  Each op returns its
    differentiable output first; further outputs are compared by value."""
    runs = []
    for op in (fused, reference):
        xs = [tc.Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
        outs = op(*xs)
        outs = outs if isinstance(outs, tuple) else (outs,)
        tc.backward(ref.sum(ref.mul(outs[0], outs[0])))
        runs.append(([getattr(o, "data", o) for o in outs], [x.grad for x in xs]))
    (f_out, f_grad), (r_out, r_grad) = runs
    return (max(np.abs(a - b).max() for a, b in zip(f_out, r_out)),
            max(np.abs(a - b).max() for a, b in zip(f_grad, r_grad)))


def test_linear_embed_matches_finite_differences_and_reference():
    patches = np.random.default_rng(2).normal(size=(2, 3, 6))
    assert finite_diff_check(lambda w, b: linear_embed(patches, w, b), [(6, 4), (4,)],
                             seed=2) < 1e-4
    rng = np.random.default_rng(3)
    fwd, grad = _fused_vs_reference(lambda w, b: linear_embed(patches, w, b),
                                    lambda w, b: ref.reference_linear_embed(patches, w, b),
                                    [rng.normal(size=(6, 4)), rng.normal(size=4)])
    assert fwd <= 1e-12 and grad <= 1e-10


_FUSE_CASES = [(1,), (4,), (1, 2, 4), (4, 1, 2)]  # window scales at T = 4


@pytest.mark.parametrize("windows", _FUSE_CASES,
                         ids=["M" + "-".join(map(str, w)) for w in _FUSE_CASES])
def test_fuse_matches_finite_differences_and_reference(windows):
    T, C, K, nb = 4, 3, 2, len(windows)
    shapes = ([(2, T, C)] * nb + [((T // M) * C, K) for M in windows] + [(K,)] * nb
              + [(nb * K, nb)])

    def split(ts):
        return list(ts[:nb]), windows, list(ts[nb : 2 * nb]), list(ts[2 * nb : 3 * nb]), ts[-1]

    def fused(*ts):  # the branch tokens stacked on a leading axis, as msw_block gives them
        xs, *rest = split(ts)
        return fuse(ref.concat([ref.reshape(x, (1, *x.shape)) for x in xs], 0), *rest)

    assert finite_diff_check(lambda *ts: fused(*ts)[0], shapes, seed=nb) < 1e-4
    rng = np.random.default_rng(nb)
    fwd, grad = _fused_vs_reference(fused, lambda *ts: ref.reference_fuse(*split(ts)),
                                    [rng.normal(size=s) for s in shapes])
    assert fwd <= 1e-12 and grad <= 1e-10


def test_bce_loss_matches_finite_differences_and_reference():
    # Two entries lie beyond each clip bound, far enough that no probe crosses it.
    centers = np.array([[0.3, 0.7, -0.5, 0.5], [0.9, 1.5, 0.1, 1.0 + 1e-3]])
    labels = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])

    def probs(x):
        return ref.add(ref.scale(x, 0.01), centers)

    assert finite_diff_check(lambda x: bce_loss(probs(x), labels), [centers.shape],
                             seed=4) < 1e-4
    x = np.random.default_rng(4).normal(size=centers.shape)
    fwd, grad = _fused_vs_reference(lambda x: bce_loss(probs(x), labels),
                                    lambda x: ref.reference_bce_loss(probs(x), labels), [x])
    assert fwd <= 1e-12 and grad <= 1e-10
    p = tc.Tensor(centers, requires_grad=True)
    tc.backward(bce_loss(p, labels))
    clipped = (centers < 0.0) | (centers > 1.0)
    assert np.all(p.grad[clipped] == 0.0) and np.all(p.grad[~clipped] != 0.0)


def test_train_forward_draws_the_three_attention_masks_in_branch_order():
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=0)
    sig = np.random.default_rng(1).normal(size=(2, cfg.n_leads, cfg.L))
    used, expected = np.random.default_rng(9), np.random.default_rng(9)
    forward(sig, cfg, params, train=True, rng=used)
    for M in cfg.windows:
        expected.random((2, cfg.tokens // M, cfg.heads, M, M))
    assert used.bit_generator.state == expected.bit_generator.state


def test_forward_without_dropout_draws_nothing():
    params = init_params(TINY, seed=0)
    sig = np.random.default_rng(1).normal(size=(2, TINY.n_leads, TINY.L))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    forward(sig, TINY, params, rng=rng)  # eval, with dropout 0.2 configured
    forward(sig, dataclasses.replace(TINY, attn_dropout=0.0), params, train=True, rng=rng)
    assert rng.bit_generator.state == state


def test_train_forward_with_dropout_needs_rng():
    sig = np.zeros((2, TINY.n_leads, TINY.L))
    with pytest.raises(ValueError, match="rng"):
        forward(sig, TINY, init_params(TINY, seed=0), train=True, rng=None)


@pytest.mark.parametrize("n_leads,L,macs", [(4, 200, 1_591_131), (12, 1000, 8_211_547)])
def test_forward_macs_per_record_are_pinned(n_leads, L, macs):
    # The benchmark's desk and PTB-XL-length models, one record.
    cfg = MswConfig(L=L, n_leads=n_leads, P=5, C=32, heads=4, windows=(5, 10, 20), K=3)
    counter = tc.MacCounter()
    with counter.active():
        forward(np.zeros((1, n_leads, L)), cfg, init_params(cfg, seed=0))
    assert counter.total == macs


def test_fused_sublayers_stay_finite_on_large_inputs():
    rng = np.random.default_rng(1)
    C, heads, M = 8, 2, 4
    x = tc.tensor(rng.normal(size=(2, 8, C)) * 500)
    gamma, beta = tc.tensor(np.ones(C)), tc.tensor(np.zeros(C))
    ws = [tc.tensor(rng.normal(size=(C, C)) * 30) for _ in range(4)]
    out, attn = window_attention(x, gamma, beta, *ws, tc.tensor(np.zeros((heads, 7))), M, heads)
    y = mlp_sublayer(x, gamma, beta, tc.tensor(rng.normal(size=(C, 4 * C)) * 30),
                     tc.tensor(np.zeros(4 * C)), tc.tensor(rng.normal(size=(4 * C, C))),
                     tc.tensor(np.zeros(C)))
    for t in (out, attn, y):
        assert np.isfinite(t.data).all()


# ---------------------------------------------------------------------------
# block


def test_block_zero_projections_is_pure_residual():
    cfg = TINY
    params = init_params(cfg, seed=0)
    for i in range(cfg.n_branches):
        params[f"branch{i}.attn.Wz"].data[:] = 0.0
        params[f"branch{i}.mlp.W2"].data[:] = 0.0
    rng = np.random.default_rng(0)
    tokens = tc.tensor(rng.normal(size=(cfg.tokens, cfg.C)))
    for branch_tokens in msw_block(tokens, cfg, params)[0].data:
        assert np.array_equal(branch_tokens, tokens.data)


def test_single_window_spanning_everything_equals_global_attention():
    T = 8
    cfg = MswConfig(L=16, n_leads=2, P=2, C=8, heads=2, windows=(T,), K=2,
                    shift=0, attn_dropout=0.0)
    rng = np.random.default_rng(42)
    params = init_params(cfg, seed=3)
    params["branch0.attn.bias"].data[:] = rng.normal(size=(2, 2 * T - 1))
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
    assert worst < 1e-10


def test_block_branch_counts_full_scale():
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=16, heads=2, windows=(5, 10, 20), K=5)
    params = init_params(cfg, seed=0)
    tokens = tc.tensor(np.random.default_rng(0).normal(size=(cfg.tokens, cfg.C)))
    _, attns = msw_block(tokens, cfg, params)
    assert [attn.shape[0] for attn in attns] == [40, 20, 10]


# ---------------------------------------------------------------------------
# pooled heads and fusion: one fuse op


def _one_head(tokens, M, w, b):
    """fuse over one branch: beta = 1, so y = sigmoid(alpha) = sigmoid(head logits)."""
    K = w.shape[1]
    y, beta = fuse(tc.tensor(tokens.data[None]), (M,), [w], [b], tc.tensor(np.zeros((K, 1))))
    assert np.array_equal(beta, np.ones(beta.shape))
    return y.data


def _fuse_logits(alphas, fusion_w):
    """fuse over branches whose logits are ``alphas``: each branch is one
    token read through an identity head."""
    K = len(alphas[0])
    eye, zero = tc.tensor(np.eye(K)), tc.tensor(np.zeros(K))
    n = len(alphas)
    return fuse(tc.tensor(np.reshape(alphas, (n, 1, K))), (1,) * n, [eye] * n, [zero] * n,
                fusion_w)


def test_branch_project_identical_tokens():
    rng = np.random.default_rng(0)
    v = rng.normal(size=4)
    tokens = tc.tensor(np.tile(v, (8, 1)))
    w = tc.tensor(rng.normal(size=(4 * 4, 3)))  # T/M = 4 windows
    b = tc.tensor(rng.normal(size=3))
    expected = np.tile(v, 4) @ w.data + b.data
    assert np.allclose(_one_head(tokens, 2, w, b), expit(expected), atol=1e-12)


def test_branch_project_zero_weights_gives_bias():
    tokens = tc.tensor(np.random.default_rng(1).normal(size=(8, 4)))
    w = tc.tensor(np.zeros((16, 3)))
    b = tc.tensor(np.array([0.1, -0.2, 0.3]))
    assert np.allclose(_one_head(tokens, 2, w, b), expit(b.data))


def test_branch_project_hand_case():
    # T=4, M=2, C=2: two pooled vectors, concatenated then projected.
    tokens = tc.tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    w = tc.tensor(np.eye(4))
    b = tc.tensor(np.zeros(4))
    assert np.allclose(_one_head(tokens, 2, w, b), expit([2.0, 3.0, 6.0, 7.0]))


def test_fuse_zero_weights_uniform_beta():
    rng = np.random.default_rng(2)
    alphas = [rng.normal(size=3) for _ in range(3)]
    y, beta = _fuse_logits(alphas, tc.tensor(np.zeros((9, 3))))
    assert np.abs(beta - 1.0 / 3.0).max() <= 1e-12
    mean_alpha = np.mean(alphas, axis=0)
    assert np.allclose(y.data, 1.0 / (1.0 + np.exp(-mean_alpha)), atol=1e-12)


def test_fuse_beta_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        alphas = [rng.normal(size=4) * 5 for _ in range(3)]
        _, beta = _fuse_logits(alphas, tc.tensor(rng.normal(size=(12, 3))))
        assert abs(beta.sum() - 1.0) <= 1e-12


def test_fuse_equal_branches_collapse():
    rng = np.random.default_rng(4)
    a = rng.normal(size=5)
    y, _ = _fuse_logits([a.copy() for _ in range(3)], tc.tensor(rng.normal(size=(15, 3))))
    assert np.allclose(y.data, 1.0 / (1.0 + np.exp(-a)), atol=1e-12)


def test_fuse_shape_errors():
    with pytest.raises(DimensionError, match="fusion weight"):
        _fuse_logits([np.zeros(3), np.zeros(3)], tc.tensor(np.zeros((7, 2))))
    with pytest.raises(AdmissibilityError, match="window scale 3"):
        fuse(tc.tensor(np.zeros((1, 4, 2))), (3,), [tc.tensor(np.zeros((2, 1)))],
             [tc.tensor(np.zeros(1))], tc.tensor(np.zeros((1, 1))))


# ---------------------------------------------------------------------------
# forward


def test_forward_output_shapes_and_range():
    params = init_params(TINY, seed=0)
    sig = np.random.default_rng(0).normal(size=(TINY.n_leads, TINY.L))
    res = forward(sig, TINY, params)
    assert res.probs.shape == (TINY.K,)
    assert np.all(res.probs.data > 0) and np.all(res.probs.data < 1)
    assert res.beta.shape == (TINY.n_branches,)


def test_forward_eval_is_deterministic():
    params = init_params(TINY, seed=0)
    sig = np.random.default_rng(1).normal(size=(2, TINY.n_leads, TINY.L))
    a = forward(sig, TINY, params).probs.data
    b = forward(sig, TINY, params).probs.data
    assert np.array_equal(a, b)


def test_forward_batch_permutation_equivariance():
    params = init_params(TINY, seed=2)
    rng = np.random.default_rng(3)
    sig = rng.normal(size=(5, TINY.n_leads, TINY.L))
    perm = rng.permutation(5)
    base = forward(sig, TINY, params).probs.data
    permuted = forward(sig[perm], TINY, params).probs.data
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_forward_smoke_finite_outputs_and_grads():
    params = init_params(TINY, seed=4)
    rng = np.random.default_rng(5)
    sig = rng.normal(size=(2, TINY.n_leads, TINY.L))
    res = forward(sig, TINY, params, train=True, rng=np.random.default_rng(0))
    assert np.isfinite(res.probs.data).all()
    tc.backward(ref.sum(res.probs))
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


def test_no_dead_parameters():
    params = init_params(TINY, seed=6)
    sig = np.random.default_rng(7).normal(size=(3, TINY.n_leads, TINY.L))
    res = forward(sig, TINY, params)
    tc.backward(ref.sum(ref.mul(res.probs, res.probs)))
    for name, p in params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name


def test_bias_table_constant_shift_leaves_attention_unchanged():
    params = init_params(TINY, seed=8)
    rng = np.random.default_rng(9)
    for i in range(TINY.n_branches):
        params[f"branch{i}.attn.bias"].data[:] = rng.normal(
            size=params[f"branch{i}.attn.bias"].shape
        )
    sig = rng.normal(size=(TINY.n_leads, TINY.L))
    before = [attn.copy() for attn in forward(sig, TINY, params).attn]
    for i in range(TINY.n_branches):
        params[f"branch{i}.attn.bias"].data += 11.25
    after = forward(sig, TINY, params).attn
    for a, b in zip(before, after):
        assert np.abs(a - b).max() <= 1e-12


def test_forward_with_shift_changes_windows_not_shapes():
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3, shift=1)
    params = init_params(cfg, seed=0)
    sig = np.random.default_rng(0).normal(size=(cfg.n_leads, cfg.L))
    res = forward(sig, cfg, params)
    assert res.probs.shape == (cfg.K,)
    assert np.isfinite(res.probs.data).all()


# ---------------------------------------------------------------------------
# Tape lifetime and inference without a tape


def _cyclic_garbage_after(step) -> int:
    """Objects only the cyclic collector can free once ``step`` has returned."""
    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        gc.enable()


def test_train_step_leaves_no_cyclic_garbage():
    params = init_params(TINY, seed=4)
    rng = np.random.default_rng(5)
    sig = rng.normal(size=(4, TINY.n_leads, TINY.L))
    labels = (rng.random((4, TINY.K)) < 0.5).astype(np.float64)

    def step():
        res = forward(sig, TINY, params, train=True, rng=np.random.default_rng(0))
        loss = bce_loss(res.probs, labels)
        params.zero_grads()
        tc.backward(loss)
        adam_step(params, AdamState(), 1e-3)
        del res, loss

    assert _cyclic_garbage_after(step) == 0


def test_dropped_forward_leaves_no_cyclic_garbage():
    params = init_params(TINY, seed=4)
    sig = np.random.default_rng(6).normal(size=(4, TINY.n_leads, TINY.L))

    def step():
        res = forward(sig, TINY, params, train=True, rng=np.random.default_rng(0))
        del res

    assert _cyclic_garbage_after(step) == 0


def test_training_step_records_four_ops_and_eval_none():
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(16)
    sig = rng.normal(size=(2, cfg.n_leads, cfg.L))
    res = forward(sig, cfg, params, train=True, rng=rng)
    graph = tc.Graph.trace(bce_loss(res.probs, np.ones((2, cfg.K))))
    assert [rec.name for rec in graph.ops] == ["embed", "msw_block", "fuse", "bce"]
    # the fusion weights and maps are arrays beside the graph, not ops of their own
    assert all(isinstance(a, np.ndarray) for a in (res.beta, *res.attn))
    with tc.no_grad():
        assert len(tc.Graph.trace(forward(sig, cfg, params).probs)) == 0


def _desk_training_step(seed):
    """One desk-shaped training step with dropout and a shift: (probs, loss, grads,
    dropout generator state, MACs of the recorded forward, MACs of a no-tape forward)."""
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3,
                    shift=1, attn_dropout=0.2)
    params = init_params(cfg, seed=seed)
    data = np.random.default_rng(seed + 1)
    sig = data.normal(size=(16, cfg.n_leads, cfg.L))
    labels = (data.random((16, cfg.K)) < 0.5).astype(np.float64)
    rng, taped, free = np.random.default_rng(seed + 2), tc.MacCounter(), tc.MacCounter()
    with taped.active():
        res = forward(sig, cfg, params, train=True, rng=rng)
    loss = bce_loss(res.probs, labels)
    params.zero_grads()
    tc.backward(loss)
    with free.active(), tc.no_grad():
        forward(sig, cfg, params)
    return (res.probs.data, loss.data, {n: t.grad for n, t in params.items()},
            rng.bit_generator.state, taped.total, free.total)


def _desk_steps_on_1_2_and_4_workers(monkeypatch, seed):
    """:func:`_desk_training_step` on the pool as it is, on one worker, and
    crowded: (pooled, alone, crowded), each checked bitwise against ``alone``."""
    pooled = _desk_training_step(seed)
    with monkeypatch.context() as m:
        m.setattr(model, "_usable_cpus", lambda: 1)
        alone = _desk_training_step(seed)
    # Stress: a thread per branch, more than the CPUs, switching as often as it can.
    with monkeypatch.context() as m:
        m.setattr(model, "_usable_cpus", lambda: 4)
        m.setattr(model, "PREDICT_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            crowded = _desk_training_step(seed)
        finally:
            sys.setswitchinterval(interval)
    for run in (pooled, crowded):
        for a, b in zip(run[:2], alone[:2]):
            assert np.array_equal(a, b)
        assert run[2].keys() == alone[2].keys()
        for name in run[2]:
            assert np.array_equal(run[2][name], alone[2][name]), name
        assert run[3] == alone[3]
    for run in (pooled, alone, crowded):
        assert run[4] == run[5] == 16 * 1_591_131  # the pinned per-record MACs, both ways
    return pooled, alone, crowded


def test_block_pool_training_step_is_bitwise_equal_to_one_worker(monkeypatch):
    _desk_steps_on_1_2_and_4_workers(monkeypatch, seed=30)


def _block_chunk_records(monkeypatch, cfg, n):
    """Records per ``window_attention`` call of a training forward over ``n`` records."""
    seen, attention = [], model.window_attention

    def spy(xhat, *args, **kwargs):
        seen.append(len(xhat))
        return attention(xhat, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(model, "window_attention", spy)
        sig = np.random.default_rng(n).normal(size=(n, cfg.n_leads, cfg.L))
        forward(sig, cfg, init_params(cfg, seed=0), train=True, rng=np.random.default_rng(0))
    return sorted(seen)


def test_a_multi_chunk_training_step_equals_the_one_chunk_step(monkeypatch):
    one_chunk = _desk_training_step(seed=30)
    monkeypatch.setattr(model, "PREDICT_TOKEN_ROWS", 4 * 40)  # 4-record chunks at T = 40
    cfg = MswConfig(L=200, n_leads=4, P=5, C=32, heads=4, windows=(5, 10, 20), K=3,
                    attn_dropout=0.2)
    assert _block_chunk_records(monkeypatch, cfg, 16) == [4] * 12  # 3 branches x 4 chunks
    pooled, _, _ = _desk_steps_on_1_2_and_4_workers(monkeypatch, seed=30)
    # The forward is bitwise the one-chunk forward; only the parameter
    # gradients' sums over chunks are ordered differently.
    for a, b in zip(pooled[:2], one_chunk[:2]):
        assert np.array_equal(a, b)
    for name, grad in pooled[2].items():
        assert np.abs(grad - one_chunk[2][name]).max() <= 1e-12, name
    assert pooled[3] == one_chunk[3]  # the same dropout draws
    # A 1-record tail joins the chunk before it.
    assert _block_chunk_records(monkeypatch, cfg, 5) == [5] * 3
    assert _block_chunk_records(monkeypatch, cfg, 9) == [4, 4, 4, 5, 5, 5]


def test_a_multi_chunk_forward_returns_the_maps_of_a_whole_batch_forward(monkeypatch):
    monkeypatch.setattr(model, "PREDICT_TOKEN_ROWS", 2 * TINY.tokens)  # chunks 2 + 3
    params = init_params(TINY, seed=26)
    sig = np.random.default_rng(27).normal(size=(5, TINY.n_leads, TINY.L))
    taped = forward(sig, TINY, params)
    with tc.no_grad():
        whole = forward(sig, TINY, params)
    assert taped.probs.op is not None
    assert taped.probs.data.tobytes() == whole.probs.data.tobytes()
    assert len(taped.attn) == len(whole.attn) == TINY.n_branches
    for ours, theirs in zip(taped.attn, whole.attn):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs)
    assert forward(sig, TINY, params, maps=False).attn == ()


def test_no_grad_forward_is_tape_free_and_bitwise_equal():
    params = init_params(TINY, seed=10)
    sig = np.random.default_rng(11).normal(size=(3, TINY.n_leads, TINY.L))
    recorded = forward(sig, TINY, params)
    with tc.no_grad():
        free = forward(sig, TINY, params)
    assert recorded.probs.op is not None
    assert free.probs.op is None and len(tc.Graph.trace(free.probs)) == 0
    assert free.probs.data.tobytes() == recorded.probs.data.tobytes()
    assert free.beta.tobytes() == recorded.beta.tobytes()
    assert predict(sig, TINY, params).tobytes() == recorded.probs.data.tobytes()


def test_mac_count_is_the_same_without_a_tape():
    params = init_params(TINY, seed=12)
    sig = np.random.default_rng(13).normal(size=(2, TINY.n_leads, TINY.L))
    counters = [tc.MacCounter(), tc.MacCounter()]
    with counters[0].active():
        forward(sig, TINY, params)
    with counters[1].active(), tc.no_grad():
        forward(sig, TINY, params)
    assert counters[0].total > 0
    assert counters[0].total == counters[1].total


def test_predict_names_the_first_non_finite_record(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", 2 * TINY.tokens)  # chunks 2 + 3
    params = init_params(TINY, seed=14)
    sig = np.random.default_rng(15).normal(size=(5, TINY.n_leads, TINY.L))
    sig[3, 1, 7] = np.nan
    with pytest.raises(NumericError, match=r"record 3, class 0"):
        predict(sig, TINY, params)


def test_predict_rows_name_the_signals_row_and_match_a_gathered_copy(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", 2 * TINY.tokens)
    params = init_params(TINY, seed=16)
    sig = np.random.default_rng(17).normal(size=(9, TINY.n_leads, TINY.L))
    rows = np.array([8, 1, 4, 6, 2])
    assert predict(sig, TINY, params, rows=rows).tobytes() == predict(sig[rows], TINY,
                                                                      params).tobytes()
    assert predict(sig, TINY, params, rows=rows[:0]).shape == (0, TINY.K)
    sig[6, 0, 3] = np.inf
    with pytest.raises(NumericError, match=r"record 6, class 0"), np.errstate(invalid="ignore"):
        predict(sig, TINY, params, rows=rows)


def test_predict_rejects_a_row_outside_the_set_before_any_chunk_runs(monkeypatch):
    monkeypatch.setattr("mswecg.model.forward", lambda *a: pytest.fail("a chunk ran"))
    sig = np.zeros((5, TINY.n_leads, TINY.L))
    for rows, bad in (([-1], -1), ([0, 5], 5), (np.array([2, 3, -6, 9]), -6)):
        with pytest.raises(IndexError, match=rf"row {bad} outside 0\.\.4"):
            predict(sig, TINY, None, rows=rows)


def _chunk_sizes(monkeypatch, cfg, n):
    """Record counts of the forward passes ``predict`` runs over n records, in row order.

    Row r of the input is filled with r, so each forward names its chunk by
    content whichever thread runs it and in whatever order.
    """
    chunks = []

    def fake_forward(record, cfg, params, maps=True):
        first = int(record[0, 0, 0])
        assert np.array_equal(record, sig[first : first + len(record)])
        chunks.append((first, len(record)))
        return SimpleNamespace(probs=tc.Tensor(np.zeros((len(record), cfg.K))))

    monkeypatch.setattr("mswecg.model.forward", fake_forward)
    sig = np.broadcast_to(np.arange(n, dtype=float)[:, None, None], (n, cfg.n_leads, cfg.L))
    predict(sig, cfg, None)
    chunks.sort()
    assert [first for first, _ in chunks] == [sum(s for _, s in chunks[:i])
                                              for i in range(len(chunks))]
    return [size for _, size in chunks]


@pytest.mark.parametrize("L,n_leads,per_chunk", [(1000, 12, 4), (200, 4, 16), (40, 2, 128)])
def test_predict_chunks_are_power_of_two_records_with_no_one_record_tail(monkeypatch, L,
                                                                         n_leads, per_chunk):
    cfg = MswConfig(L=L, n_leads=n_leads, P=5, C=8, heads=2, windows=(2,), K=3)
    assert per_chunk * cfg.tokens <= PREDICT_TOKEN_ROWS < 2 * per_chunk * cfg.tokens
    for n in range(1, 3 * per_chunk + 3):
        sizes = _chunk_sizes(monkeypatch, cfg, n)
        assert sum(sizes) == n
        assert all(s == per_chunk for s in sizes[:-1]), (n, sizes)
        assert 1 <= sizes[-1] <= per_chunk + 1 and (sizes[-1] > 1 or n == 1), (n, sizes)


def test_predict_runs_at_most_predict_workers_chunks_at_once(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", TINY.tokens)  # 1-record chunks
    workers = min(PREDICT_WORKERS, model._usable_cpus())
    together = threading.Barrier(workers, timeout=10)  # the first chunks must overlap
    lock, in_flight, most = threading.Lock(), [0], [0]

    def fake_forward(record, cfg, params, maps=True):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        if int(record[0, 0, 0]) < workers:
            together.wait()
        time.sleep(0.002)
        with lock:
            in_flight[0] -= 1
        return SimpleNamespace(probs=tc.Tensor(record[:, :1, 0].repeat(cfg.K, axis=1)))

    monkeypatch.setattr("mswecg.model.forward", fake_forward)
    sig = np.broadcast_to(np.arange(12.0)[:, None, None], (12, TINY.n_leads, TINY.L))
    assert predict(sig, TINY, None).tolist() == [[r] * TINY.K for r in range(12)]
    assert most[0] == workers


def test_predict_reports_the_first_failing_chunk_and_cancels_the_queued_ones(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", TINY.tokens)  # 1-record chunks
    n, started = 40, []

    def fake_forward(record, cfg, params, maps=True):
        first = int(record[0, 0, 0])
        started.append(first)
        fail = first <= 1
        if first != 1:
            time.sleep(0.05)  # chunk 1 fails first, but chunk 0 is reported
        probs = np.full((len(record), cfg.K), np.nan if fail else 0.5)
        return SimpleNamespace(probs=tc.Tensor(probs))

    monkeypatch.setattr("mswecg.model.forward", fake_forward)
    sig = np.broadcast_to(np.arange(float(n))[:, None, None], (n, TINY.n_leads, TINY.L))
    with pytest.raises(NumericError, match=r"record 0, class 0"):
        predict(sig, TINY, None)
    assert 0 in started and len(started) < n // 2  # the queued chunks were cancelled


def test_predict_shares_the_blas_threads_among_its_workers(monkeypatch):
    calls = model._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = calls
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", TINY.tokens)
    seen = []

    def fake_forward(record, cfg, params, maps=True):
        seen.append(get())
        return SimpleNamespace(probs=tc.Tensor(np.zeros((len(record), cfg.K))))

    monkeypatch.setattr("mswecg.model.forward", fake_forward)
    before = get()
    set_(2)
    try:
        predict(np.zeros((6, TINY.n_leads, TINY.L)), TINY, None)
        assert set(seen) == {2 // min(PREDICT_WORKERS, model._usable_cpus())}
        assert get() == 2  # restored
    finally:
        set_(before)


def test_overlapping_blas_share_outs_restore_the_thread_count(monkeypatch):
    count = [4]
    monkeypatch.setattr(model, "_openblas_thread_calls",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    inside = []

    def first():  # enters first, leaves while the second is still inside
        with model._blas_threads_shared_by(2):
            a_in.set()
            assert b_in.wait(10)
            inside.append(count[0])
        a_out.set()

    def second():
        assert a_in.wait(10)
        with model._blas_threads_shared_by(2):
            b_in.set()
            assert a_out.wait(10)
            inside.append(count[0])

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert inside == [2, 2]
    assert count == [4]


def test_predict_counts_the_macs_of_a_serial_forward_and_records_no_tape(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", 2 * TINY.tokens)  # chunks 2+2+2+3
    params = init_params(TINY, seed=22)
    sig = np.random.default_rng(23).normal(size=(9, TINY.n_leads, TINY.L))
    taped, maps_asked = [], []

    def spy_forward(record, cfg, params, maps=True):
        result = forward(record, cfg, params, maps=maps)
        taped.append(result.probs.op is not None)
        maps_asked.append(maps)
        return result

    monkeypatch.setattr("mswecg.model.forward", spy_forward)
    chunked, serial = tc.MacCounter(), tc.MacCounter()
    with chunked.active():
        predict(sig, TINY, params)
    with serial.active(), tc.no_grad():
        forward(sig, TINY, params)
    assert chunked.total == serial.total and serial.total > 0
    assert taped == maps_asked == [False] * 4


def test_predict_chunks_keep_the_callers_errstate(monkeypatch):
    monkeypatch.setattr("mswecg.model.PREDICT_TOKEN_ROWS", 2 * TINY.tokens)
    params = init_params(TINY, seed=24)
    sig = np.random.default_rng(25).normal(size=(9, TINY.n_leads, TINY.L))
    sig[6, 0, 3] = np.inf  # an invalid operation in the fourth chunk
    with pytest.raises(FloatingPointError, match="invalid"), np.errstate(invalid="raise"):
        predict(sig, TINY, params)


def _old_predict(sig, cfg, params):
    """The former rule: no-tape forwards over consecutive 64-record slices."""
    with tc.no_grad():
        return np.concatenate([forward(sig[s : s + 64], cfg, params).probs.data
                               for s in range(0, len(sig), 64)])


@pytest.mark.parametrize("n,n_leads,L", [(100, 12, 1000), (75, 4, 200)])
def test_predict_equals_the_former_64_record_chunks_bitwise(n, n_leads, L):
    cfg = MswConfig(L=L, n_leads=n_leads, P=5, C=32, heads=4, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=18)
    rng = np.random.default_rng(19)
    for _, t in params.items():  # non-trivial biases and tables, so every term counts
        t.data = t.data + rng.normal(scale=0.05, size=t.shape)
    sig = rng.normal(size=(n, n_leads, L))
    assert predict(sig, cfg, params).tobytes() == _old_predict(sig, cfg, params).tobytes()


def test_predict_at_ptb_xl_length_equals_a_taped_and_a_whole_batch_forward_bitwise():
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=32, heads=4, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=28)
    rng = np.random.default_rng(29)
    for _, t in params.items():
        t.data = t.data + rng.normal(scale=0.05, size=t.shape)
    sig = rng.normal(size=(8, cfg.n_leads, cfg.L))
    # predict runs two 4-record chunks, each over several blocks of the GELU's CDF.
    assert [stop - start for start, stop in model._chunk_spans(8, cfg.tokens)] == [4, 4]
    assert 4 * cfg.tokens > 2 * model._GELU_BLOCK_ROWS
    taped = forward(sig, cfg, params)  # the block runs the same two chunks under a tape
    with tc.no_grad():
        whole = forward(sig, cfg, params)  # one no-tape forward over all 8 records
    assert taped.probs.op is not None
    assert predict(sig, cfg, params).tobytes() == taped.probs.data.tobytes()
    assert predict(sig, cfg, params).tobytes() == whole.probs.data.tobytes()


def test_predict_memory_does_not_grow_with_the_record_count():
    cfg = MswConfig(L=1000, n_leads=1, P=5, C=8, heads=2, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=20)
    peaks = {}
    for n in (8, 16, 160):  # 8 records are one chunk
        sig = np.random.default_rng(21).normal(size=(n, cfg.n_leads, cfg.L))
        predict(sig, cfg, params)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            predict(sig, cfg, params)
            peaks[n] = tracemalloc.get_traced_memory()[1] - n * cfg.K * 8  # minus the output
        finally:
            tracemalloc.stop()
    # Up to PREDICT_WORKERS chunks are in flight; where their peaks overlap depends on timing.
    assert max(peaks[16], peaks[160]) <= PREDICT_WORKERS * peaks[8] * 1.1, peaks
