"""Shared test oracles: finite differences, a from-scratch global-attention
layer, a minimal reverse-mode tape with the primitive ops the model's stage
rules replaced, the model's stages and sublayer rules recorded as ops on it,
brute-force metric loops, and the per-parameter Adam update."""

import math

import numpy as np
from scipy.special import erf, expit

from mswecg import model
from mswecg import tensor as tc
from mswecg.errors import DimensionError
from mswecg.train import bce_loss as _bce_loss


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
# A minimal reverse-mode tape.  ``apply_op`` records an op's inputs and
# backward rule on the tensor it produces; ``backward`` replays the ops a
# scalar depends on in reverse topological order.  The primitive ops below are
# built on it, and so are the model's stages as single ops, further down.


class Tensor:
    """An array, whether it wants a gradient, its gradient, and the op that made it."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = None  # (inputs, backward_fn) of the op that produced this tensor

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim


def apply_op(inputs, out_data, backward_fn):
    """The output tensor of an op; ``backward_fn(g)`` returns one gradient
    (or None) per input."""
    out = Tensor(out_data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.op = (tuple(inputs), backward_fn)
    return out


def backward(loss):
    """Add d loss / d leaf to every leaf's ``.grad``; ops' outputs keep none."""
    # Iterative postorder DFS: a tensor is marked seen when expanded, not when
    # pushed, so shared subgraphs keep their producers ahead of every consumer.
    order, seen = [], set()
    stack = [(loss, False)] if loss.op is not None else []
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            stack += [(u, False) for u in t.op[0] if u.op is not None and id(u) not in seen]
    loss.grad = np.ones_like(loss.data)
    for t in reversed(order):
        (inputs, fn), g, t.grad = t.op, t.grad, None
        if g is None:
            continue
        for u, gu in zip(inputs, fn(g)):
            if gu is not None and u.requires_grad:
                u.grad = gu if u.grad is None else u.grad + gu


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        kd = list(g.shape)
        for a in sorted(axes):
            kd.insert(a, 1)
        g = g.reshape(kd)
    return np.broadcast_to(g, shape).copy()


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def fn(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op((a, b), out, fn)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def fn(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op((a, b), out, fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def fn(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op((a, b), out, fn)


def scale(x, s: float):
    x = _as_tensor(x)
    s = float(s)

    def fn(g):
        return (g * s if x.requires_grad else None,)

    return apply_op((x,), x.data * s, fn)


def matmul(a, b):
    """Standard matrix product; leading dims are stacked numpy-style.

    Backward: da = g @ b^T, db = a^T @ g (summed over broadcast stacking).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-D or stacked operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = tc.matmul(a.data, b.data)

    def fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return apply_op((a, b), out, fn)


def linear(x, w, b=None):
    """x @ w (+ b)."""
    y = matmul(x, w)
    return y if b is None else add(y, b)


def concat(tensors, axis: int = 0):
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat needs at least one tensor")
    axis = axis % ts[0].ndim
    for t in ts[1:]:
        if t.ndim != ts[0].ndim:
            raise DimensionError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for ax, (s0, s1) in enumerate(zip(ts[0].shape, t.shape)):
            if ax != axis and s0 != s1:
                raise DimensionError(f"concat shapes differ off axis {axis}: {ts[0].shape} vs {t.shape}")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum(sizes)[:-1]

    def fn(g):
        pieces = np.split(g, bounds, axis=axis)
        return tuple(p if t.requires_grad else None for t, p in zip(ts, pieces))

    return apply_op(ts, out, fn)


def sum(x, axis=None, keepdims: bool = False):
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def fn(g):
        if not x.requires_grad:
            return (None,)
        return (_expand_reduced(g, x.data.shape, axis, keepdims),)

    return apply_op((x,), out, fn)


def mean(x, axis=None, keepdims: bool = False):
    x = _as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else math.prod(
        x.data.shape[a] for a in ((axis,) if isinstance(axis, int) else tuple(axis))
    )

    def fn(g):
        if not x.requires_grad:
            return (None,)
        return (_expand_reduced(g, x.data.shape, axis, keepdims) / count,)

    return apply_op((x,), out, fn)


def reshape(x, shape):
    x = _as_tensor(x)
    out = x.data.reshape(shape)

    def fn(g):
        return (g.reshape(x.data.shape) if x.requires_grad else None,)

    return apply_op((x,), out, fn)


def transpose(x, axes):
    x = _as_tensor(x)
    axes = tuple(a % x.ndim for a in axes)
    inv = np.argsort(axes)

    def fn(g):
        return (g.transpose(inv) if x.requires_grad else None,)

    return apply_op((x,), x.data.transpose(axes), fn)


def clip(x, lo: float, hi: float):
    """Clamp values to [lo, hi]; gradient passes through unclipped entries."""
    x = _as_tensor(x)
    out = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def fn(g):
        return (g * mask if x.requires_grad else None,)

    return apply_op((x,), out, fn)


def log(x):
    x = _as_tensor(x)

    def fn(g):
        return (g / x.data if x.requires_grad else None,)

    return apply_op((x,), np.log(x.data), fn)


# ---------------------------------------------------------------------------
# Nonlinearities


def softmax_lastdim(x):
    """Overflow-safe softmax over the last axis (max-subtracted)."""
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last dim, got shape {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        if not x.requires_grad:
            return (None,)
        dot = (g * p).sum(axis=-1, keepdims=True)
        return ((g - dot) * p,)

    return apply_op((x,), p, fn)


def sigmoid(x):
    x = _as_tensor(x)
    p = expit(x.data)

    def fn(g):
        return (g * p * (1.0 - p) if x.requires_grad else None,)

    return apply_op((x,), p, fn)


# ---------------------------------------------------------------------------
# The model's stages and the block's standardization and sublayer rules,
# each recorded as one op on Tensors: how a training step chains them.  A
# stage op hands its rule NaN-filled slots for the parameters it names.


def _arrays(named):
    return {n: t.data for n, t in named.items()}


def _stage_op(x, named, out, rule):
    """Record a stage's ``rule(g, grads)`` as one op on the tensor ``x`` (None
    for an input that needs no gradient) and the parameters ``named`` (name
    -> Tensor)."""
    def fn(g):
        grads = {n: np.full(t.shape, np.nan) for n, t in named.items()}
        gx = rule(g, grads)
        return (gx, *grads.values()) if x is not None else tuple(grads.values())

    inputs = ((x,) if x is not None else ()) + tuple(named.values())
    return apply_op(inputs, out, fn)


def leaves(params, names):
    """name -> a gradient-wanting Tensor over each named array of ``params``."""
    return {n: Tensor(params[n], requires_grad=True) for n in names}


def linear_embed(patches, w, b):
    """``model.linear_embed`` as an ``embed`` op on its weight and bias."""
    named = {"embed.W": w, "embed.b": b}
    out, rule = model.linear_embed(patches, _arrays(named), train=True)
    return _stage_op(None, named, out, rule)


def msw_block(x, cfg, named, rng=None):
    """``model.msw_block`` in training as an op on the block input and the
    branch parameters ``named``: (stacked, attn off the graph)."""
    stacked, attn, rule = model.msw_block(x.data, cfg, _arrays(named), train=True, rng=rng)
    return _stage_op(x, named, stacked, rule), attn


def fuse(branch_tokens, windows, head_ws, head_bs, fusion_w):
    """``model.fuse`` as a ``fuse`` op: (y, beta off the graph)."""
    named = {"fusion.W": fusion_w}
    for i, (w, b) in enumerate(zip(head_ws, head_bs)):
        named[f"branch{i}.head.W"], named[f"branch{i}.head.b"] = w, b
    y, beta, rule = model.fuse(branch_tokens.data, windows, _arrays(named), train=True)
    return _stage_op(branch_tokens, named, y, rule), beta


def bce_loss(probs, labels):
    """``train.bce_loss`` as a ``bce`` op."""
    loss, rule = _bce_loss(probs.data, labels)
    return apply_op((probs,), np.float64(loss), lambda g: (rule(g, None),))


def standardize(x):
    """``model._standardize`` as a ``standardize`` op: LN's rows before gain and bias."""
    xhat, inv = model._standardize(x.data)
    return apply_op((x,), xhat, lambda g: (model._standardize_grad(g, xhat, inv),))


def attention(xhat, gamma, beta, wq, wk, wv, wz, bias_table, M, heads, shift=0,
              attn_dropout=0.0, train=False, uniforms=None):
    """``model.window_attention`` on standardized rows as a ``window_attention``
    op, on ``[Wq|Wk|Wv]`` joined by a ``concat`` op: (out, attn off the
    graph).  Dropout hits the maps only if ``train``."""
    inputs = (xhat, gamma, beta, concat([wq, wk, wv], axis=1), wz, bias_table)
    out, attn, rule = model.window_attention(*(t.data for t in inputs), M, heads, shift,
                                             attn_dropout=attn_dropout if train else 0.0,
                                             train=True, uniforms=uniforms)
    return apply_op(inputs, out, rule), Tensor(attn)


def window_attention(x, gamma, beta, wq, wk, wv, wz, bias_table, M, heads, shift=0,
                     attn_dropout=0.0, train=False, uniforms=None):
    """The attention sublayer x + attention(standardize(x)) as the block runs
    it: (out, attn off the graph).  x's gradient is g plus the
    standardization's gradient of the rule's ``xhat`` gradient."""
    out, attn = attention(standardize(x), gamma, beta, wq, wk, wv, wz, bias_table, M, heads,
                          shift, attn_dropout=attn_dropout, train=train, uniforms=uniforms)
    return add(x, out), attn


def mlp_sublayer(x, gamma, beta, w1, b1, w2, b2):
    """``model.mlp_sublayer`` as an ``mlp`` op."""
    inputs = (x, gamma, beta, w1, b1, w2, b2)
    out, rule = model.mlp_sublayer(*(t.data for t in inputs), train=True)
    return apply_op(inputs, out, rule)


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

    return apply_op((x, gamma, beta), xhat * gamma.data + beta.data, fn)


def _ref_gelu(x):
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
    return apply_op((x,), x.data * cdf, lambda g: (g * (cdf + x.data * pdf),))


def _ref_roll(x, shift):
    return apply_op((x,), np.roll(x.data, shift, axis=-2),
                       lambda g: (np.roll(g, -shift, axis=-2),))


def _ref_relative_bias(table, M):
    heads = table.shape[0]
    offs = np.arange(M)[:, None] - np.arange(M)[None, :] + (M - 1)

    def fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, (np.arange(heads)[:, None], offs.reshape(1, -1)), g.reshape(heads, -1))
        return (gt,)

    return apply_op((table,), table.data[:, offs], fn)


def reference_branch(x, p, M, heads, shift=0, attn_dropout=0.0, train=False, rng=None):
    """One branch of the block as primitive ops: (block output, pre-dropout
    attention); ``p(leaf)`` gives a parameter.

    Dropout draws one mask of the attention's shape from ``rng``, as the
    block always has."""
    *lead, T, C = x.shape
    d = C // heads

    def split_heads(t):  # (..., M, C) -> (..., heads, M, d)
        n = t.ndim + 1
        return transpose(reshape(t, (*t.shape[:-1], heads, d)),
                            (*range(n - 3), n - 2, n - 3, n - 1))

    h = _ref_layernorm(x, p("ln1.gamma"), p("ln1.beta"))
    w = reshape(_ref_roll(h, -shift) if shift else h, (*lead, T // M, M, C))
    q, k, v = (split_heads(matmul(w, p(f"attn.{n}"))) for n in ("Wq", "Wk", "Wv"))
    n = k.ndim
    scores = scale(matmul(q, transpose(k, (*range(n - 2), n - 1, n - 2))),
                      1.0 / math.sqrt(d))
    attn = softmax_lastdim(add(scores, _ref_relative_bias(p("attn.bias"), M)))
    a = attn
    if train and attn_dropout > 0.0:
        mask = (rng.random(attn.shape) >= attn_dropout) / (1.0 - attn_dropout)
        a = apply_op((attn,), attn.data * mask, lambda g: (g * mask,))
    z = matmul(a, v)
    z = reshape(transpose(z, (*range(n - 3), n - 2, n - 3, n - 1)), (*lead, T, C))
    z = matmul(z, p("attn.Wz"))
    x1 = add(x, _ref_roll(z, shift) if shift else z)
    m = linear(_ref_layernorm(x1, p("ln2.gamma"), p("ln2.beta")), p("mlp.W1"), p("mlp.b1"))
    m = linear(_ref_gelu(m), p("mlp.W2"), p("mlp.b2"))
    return add(x1, m), attn


# ---------------------------------------------------------------------------
# The embedding, heads + fusion and loss as primitive ops: the compositions
# ``model.linear_embed``, ``model.fuse`` and ``train.bce_loss`` replaced.


def reference_linear_embed(patches, w, b):
    return linear(Tensor(patches), w, b)


def reference_branch_project(tokens, M, w, b):
    """Mean-pool each window of M tokens, concatenate, project to K logits."""
    *lead, T, C = tokens.shape
    pooled = mean(reshape(tokens, (*lead, T // M, M, C)), axis=-2)
    logits = add(matmul(reshape(pooled, (-1, (T // M) * C)), w), b)
    return reshape(logits, (*lead, w.shape[1]))


def reference_fuse(branch_tokens, windows, head_ws, head_bs, fusion_w):
    """(sigmoid(sum_i beta_i alpha_i), beta), beta = softmax(concat(alphas) @ fusion_w)."""
    alphas = [reference_branch_project(x, M, w, b)
              for x, M, w, b in zip(branch_tokens, windows, head_ws, head_bs)]
    nb = len(alphas)
    *lead, K = alphas[0].shape
    stacked = concat([reshape(a, (*lead, 1, K)) for a in alphas], axis=-2)
    rows = reshape(stacked, (-1, nb * K))
    beta = softmax_lastdim(reshape(matmul(rows, fusion_w), (*lead, nb)))
    y = sigmoid(sum(mul(reshape(beta, (*lead, nb, 1)), stacked), axis=-2))
    return y, beta


def reference_bce_loss(probs, labels):
    y = np.asarray(labels, dtype=np.float64)
    p = clip(probs, 1e-12, 1.0 - 1e-12)
    term = add(mul(Tensor(y), log(p)), mul(Tensor(1.0 - y), log(sub(1.0, p))))
    return scale(mean(term), -1.0)


def per_parameter_adam_step(data, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The former Adam update: one loop over named arrays, moments in dicts.

    ``data`` and ``grads`` map names to arrays; ``state`` is a dict with
    ``step``, ``m`` and ``v`` (the last two name -> array).  ``data`` is
    updated by rebinding each entry.
    """
    state["step"] += 1
    c1 = 1.0 - beta1 ** state["step"]
    c2 = 1.0 - beta2 ** state["step"]
    for name, g in grads.items():
        m = state["m"].get(name)
        if m is None:
            m = np.zeros_like(data[name])
            v = np.zeros_like(data[name])
        else:
            v = state["v"][name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state["m"][name] = m
        state["v"][name] = v
        data[name] = data[name] - lr * (m / c1) / (np.sqrt(v / c2) + eps)


def finite_diff_check(build, shapes, seed=0, h=1e-6, floor=1e-3):
    """Max relative error between analytic grads and central differences.

    ``build(*tensors)`` must return an output tensor; the probing loss is
    sum(out * out) so every output element matters.
    """
    rng = np.random.default_rng(seed)
    xs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = build(*xs)
    backward(sum(mul(out, out)))

    def value():
        frozen = [Tensor(x.data) for x in xs]
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


def loop_report(scores, labels, tau=0.5):
    """Every ``MetricReport`` field, by element loops and pairwise AUCs."""
    b, k = scores.shape
    tp, fp, fn, _ = loop_confusion(scores, labels, tau)
    precision, recall, f1 = [], [], []
    for j in range(k):
        p = tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0
        r = tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0
        precision.append(float(p))
        recall.append(float(r))
        f1.append(float(2 * p * r / (p + r) if p + r else 0.0))
    empty_correct = zero_denominator = 0
    for i in range(b):
        hits = misses = 0
        for j in range(k):
            hits += int(scores[i, j] >= tau and labels[i, j] == 1)
            misses += int((scores[i, j] >= tau) != (labels[i, j] == 1))
        empty_correct += hits + misses == 0
        zero_denominator += hits == 0 and misses > 0

    def mean_auc(rows_s, rows_l):
        vals = [pairwise_auc(s, l) for s, l in zip(rows_s, rows_l)]
        kept = [v for v in vals if v is not None]
        return (float(np.mean(kept)) if kept else None), len(vals) - len(kept)

    auc_macro, skipped_classes = mean_auc(scores.T, labels.T)
    auc_samples, skipped_samples = mean_auc(scores, labels)
    return {
        "accuracy": loop_accuracy(scores, labels, tau),
        "macro_f1": loop_macro_f1(scores, labels, tau),
        "samples_f1": loop_samples_f1(scores, labels, tau),
        "auc_macro": auc_macro,
        "auc_samples": auc_samples,
        "per_class_precision": precision,
        "per_class_recall": recall,
        "per_class_f1": f1,
        "degenerate_f1_classes": int(np.count_nonzero(tp + fp + fn == 0)),
        "empty_correct_samples": empty_correct,
        "zero_denominator_samples": zero_denominator,
        "skipped_auc_classes": skipped_classes,
        "skipped_auc_samples": skipped_samples,
        "threshold": tau,
        "accuracy_mode": "per_label",
    }
