"""Shared test oracles: finite differences, a from-scratch global-attention
layer, the unfused tape composition of the block, and brute-force metric
loops."""

import math

import numpy as np
from scipy.special import erf

from mswecg import tensor as tc


def global_block_oracle(x, p, heads, eps=1e-5):
    """Full-sequence transformer layer in plain numpy, coded independently
    of the package's tensor engine: LN -> per-head biased softmax attention
    -> projection -> residual -> LN -> GELU MLP -> residual."""

    def ln(v, gamma, beta):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * gamma + beta

    T, C = x.shape
    d = C // heads
    h = ln(x, p["ln1.gamma"], p["ln1.beta"])
    q, k, v = h @ p["attn.Wq"], h @ p["attn.Wk"], h @ p["attn.Wv"]
    table = p["attn.bias"]
    offs = np.arange(T)[:, None] - np.arange(T)[None, :] + (T - 1)
    z = np.empty((T, C))
    for head in range(heads):
        sl = slice(head * d, (head + 1) * d)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(d) + table[head][offs]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        z[:, sl] = a @ v[:, sl]
    x1 = x + z @ p["attn.Wz"]
    h2 = ln(x1, p["ln2.gamma"], p["ln2.beta"])
    m = h2 @ p["mlp.W1"] + p["mlp.b1"]
    m = 0.5 * m * (1.0 + erf(m / math.sqrt(2.0)))
    return x1 + m @ p["mlp.W2"] + p["mlp.b2"]


# ---------------------------------------------------------------------------
# The block as a chain of primitive tape ops: the composition the fused
# sublayer ops of ``mswecg.model`` replace, kept as their reference.


def _ref_layernorm(x, gamma, beta, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    c = x.shape[-1]

    def fn(g):
        dxhat = g * gamma.data
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return gx, (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)

    return tc.apply_op("layernorm", (x, gamma, beta), xhat * gamma.data + beta.data, fn)


def _ref_gelu(x):
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
    return tc.apply_op("gelu", (x,), x.data * cdf, lambda g: (g * (cdf + x.data * pdf),))


def _ref_roll(x, shift):
    return tc.apply_op("roll", (x,), np.roll(x.data, shift, axis=-2),
                       lambda g: (np.roll(g, -shift, axis=-2),))


def _ref_relative_bias(table, M):
    heads = table.shape[0]
    offs = np.arange(M)[:, None] - np.arange(M)[None, :] + (M - 1)

    def fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, (np.arange(heads)[:, None], offs.reshape(1, -1)), g.reshape(heads, -1))
        return (gt,)

    return tc.apply_op("relative_bias", (table,), table.data[:, offs], fn)


def reference_branch(x, p, M, heads, shift=0, attn_dropout=0.0, train=False, rng=None):
    """One branch of the block as primitive ops: (block output, pre-dropout
    attention); ``p(leaf)`` gives a parameter.

    Dropout draws one mask of the attention's shape from ``rng``, as the
    block always has."""
    *lead, T, C = x.shape
    d = C // heads

    def split_heads(t):  # (..., M, C) -> (..., heads, M, d)
        n = t.ndim + 1
        return tc.transpose(tc.reshape(t, (*t.shape[:-1], heads, d)),
                            (*range(n - 3), n - 2, n - 3, n - 1))

    h = _ref_layernorm(x, p("ln1.gamma"), p("ln1.beta"))
    w = tc.reshape(_ref_roll(h, -shift) if shift else h, (*lead, T // M, M, C))
    q, k, v = (split_heads(tc.matmul(w, p(f"attn.{n}"))) for n in ("Wq", "Wk", "Wv"))
    n = k.ndim
    scores = tc.scale(tc.matmul(q, tc.transpose(k, (*range(n - 2), n - 1, n - 2))),
                      1.0 / math.sqrt(d))
    attn = tc.softmax_lastdim(tc.add(scores, _ref_relative_bias(p("attn.bias"), M)))
    a = attn
    if train and attn_dropout > 0.0:
        mask = (rng.random(attn.shape) >= attn_dropout) / (1.0 - attn_dropout)
        a = tc.apply_op("dropout", (attn,), attn.data * mask, lambda g: (g * mask,))
    z = tc.matmul(a, v)
    z = tc.reshape(tc.transpose(z, (*range(n - 3), n - 2, n - 3, n - 1)), (*lead, T, C))
    z = tc.matmul(z, p("attn.Wz"))
    x1 = tc.add(x, _ref_roll(z, shift) if shift else z)
    m = tc.linear(_ref_layernorm(x1, p("ln2.gamma"), p("ln2.beta")), p("mlp.W1"), p("mlp.b1"))
    m = tc.linear(_ref_gelu(m), p("mlp.W2"), p("mlp.b2"))
    return tc.add(x1, m), attn


def finite_diff_check(build, shapes, seed=0, h=1e-6, floor=1e-3):
    """Max relative error between analytic grads and central differences.

    ``build(*tensors)`` must return an output tensor; the probing loss is
    sum(out * out) so every output element matters.
    """
    rng = np.random.default_rng(seed)
    xs = [tc.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = build(*xs)
    tc.backward(tc.sum(tc.mul(out, out)))

    def value():
        frozen = [tc.Tensor(x.data) for x in xs]
        return float((build(*frozen).data ** 2).sum())

    worst = 0.0
    for x in xs:
        flat = x.data.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = value()
            flat[i] = orig - h
            lm = value()
            flat[i] = orig
            numeric[i] = (lp - lm) / (2 * h)
        analytic = x.grad.reshape(-1)
        denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric),
                                   np.full_like(numeric, floor)])
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst


def pairwise_auc(scores, labels):
    """O(n^2) Mann-Whitney AUC with ties counted 1/2; None if degenerate."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        wins += float((p > neg).sum()) + 0.5 * float((p == neg).sum())
    return wins / (len(pos) * len(neg))


def loop_confusion(scores, labels, tau=0.5):
    """Element-loop per-class confusion counts."""
    b, k = scores.shape
    tp = np.zeros(k, dtype=int)
    fp = np.zeros(k, dtype=int)
    fn = np.zeros(k, dtype=int)
    tn = np.zeros(k, dtype=int)
    for i in range(b):
        for j in range(k):
            pred = 1 if scores[i, j] >= tau else 0
            if pred == 1 and labels[i, j] == 1:
                tp[j] += 1
            elif pred == 1 and labels[i, j] == 0:
                fp[j] += 1
            elif pred == 0 and labels[i, j] == 1:
                fn[j] += 1
            else:
                tn[j] += 1
    return tp, fp, fn, tn


def loop_macro_f1(scores, labels, tau=0.5):
    tp, fp, fn, _ = loop_confusion(scores, labels, tau)
    total = 0.0
    for j in range(scores.shape[1]):
        p = tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0
        r = tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0
        total += 2 * p * r / (p + r) if p + r else 0.0
    return total / scores.shape[1]


def loop_samples_f1(scores, labels, tau=0.5):
    b = scores.shape[0]
    total = 0.0
    for i in range(b):
        pred = (scores[i] >= tau).astype(int)
        tp = int(((pred == 1) & (labels[i] == 1)).sum())
        fp = int(((pred == 1) & (labels[i] == 0)).sum())
        fn = int(((pred == 0) & (labels[i] == 1)).sum())
        if tp + fp + fn == 0:
            total += 1.0
        else:
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            total += 2 * p * r / (p + r) if p + r else 0.0
    return total / b


def loop_accuracy(scores, labels, tau=0.5):
    b, k = scores.shape
    correct = 0
    for i in range(b):
        for j in range(k):
            pred = 1 if scores[i, j] >= tau else 0
            correct += int(pred == labels[i, j])
    return correct / (b * k)
