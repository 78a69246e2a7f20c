"""Multi-scale windowed-attention network over patched multilead signals.

One record flows as: patch split -> linear embedding -> a single block run
once per window scale (windowed multi-head attention with relative position
bias, then a GELU MLP, residuals around both) -> per-branch window pooling
and projection to class logits -> learned softmax-weighted fusion -> sigmoid
probabilities.

Every stage works on numpy arrays and, in training, returns its
hand-written backward rule (see ``mswecg.tensor``): :func:`linear_embed`,
:func:`msw_block` and :func:`fuse` (pooled heads, fusion softmax, sigmoid);
``train.bce_loss`` is the fourth.  The block standardizes its input once
(LN1) and each branch runs two sublayer rules: :func:`window_attention`
(from the standardized rows: LN1's gain and bias, one QKV product, biased
softmax, dropout, AV, output projection) and :func:`mlp_sublayer` (LN2,
GELU MLP, residual).  Every forward product runs through ``tensor.matmul``,
which counts its MACs; :func:`_on_pool` states which threads run what.
:class:`ForwardResult` carries the probabilities, the fusion weights, each
scale's attention maps and, in training, the three rules.

All functions accept arbitrary leading axes, so the same code serves a
single record (T, C) and a batch (B, T, C).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from . import tensor as tc
from .config import MswConfig
from .errors import AdmissibilityError, DimensionError, NumericError
from .params import ParamStore

_LN_EPS = 1e-5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Token rows per ``predict`` forward: 4 records at 12 leads x 1000 samples, 16 at 4 x 200.
PREDICT_TOKEN_ROWS = 1024
# Rows of an evaluation MLP's pre-activations whose normal CDF is taken at once.
_GELU_BLOCK_ROWS = 256
# Threads of the worker pool (see ``_on_pool``), capped by the usable CPUs.
PREDICT_WORKERS = 2


@dataclass
class ForwardResult:
    probs: np.ndarray  # (..., K) sigmoid outputs
    beta: np.ndarray  # (..., n_branches) fusion weights
    attn: tuple[np.ndarray, ...]  # per window scale: (..., T/M, heads, M, M), pre-dropout; or ()
    rules: list  # in training the embed, block and fuse rules, in chain order; else empty


# ---------------------------------------------------------------------------
# Preprocessing


def patch_split(signal: np.ndarray, cfg: MswConfig) -> np.ndarray:
    """Cut (..., n_leads, L) voltages into (..., T, n_leads*P) patch rows.

    Row t concatenates, lead-major, each lead's samples [t*P, (t+1)*P); the
    layout is fixed so saved checkpoints stay portable.
    """
    sig = np.asarray(signal, dtype=np.float64)
    if sig.shape[-2:] != (cfg.n_leads, cfg.L):
        raise DimensionError(
            f"signal shape {sig.shape[-2:]} does not match (n_leads, L) = "
            f"({cfg.n_leads}, {cfg.L})"
        )
    if cfg.L % cfg.P != 0:
        raise AdmissibilityError(f"patch length {cfg.P} does not divide record length {cfg.L}")
    lead = sig.shape[:-2]
    T = cfg.tokens
    x = sig.reshape(*lead, cfg.n_leads, T, cfg.P)
    x = np.moveaxis(x, -3, -2)  # (..., T, n_leads, P)
    return np.ascontiguousarray(x.reshape(*lead, T, cfg.n_leads * cfg.P))


def linear_embed(patches: np.ndarray, params, train: bool = False):
    """Project (..., T, D) patch rows into the block's width: patches @ W + b.

    ``params`` maps ``embed.W`` and ``embed.b`` to arrays.  A single
    (rows, D) @ (D, C) product over all rows.  Returns (tokens, rule): in
    training ``rule(g, grads)`` writes both gradients into ``grads``; else
    the rule is None.
    """
    w = params["embed.W"]
    *lead, D = patches.shape
    rows = patches.reshape(-1, D)
    y = tc.matmul(rows, w)
    y += params["embed.b"]

    def rule(g, grads):
        g = g.reshape(rows.shape[0], -1)
        grads["embed.W"][...] = rows.T @ g
        grads["embed.b"][...] = g.sum(axis=0)

    return y.reshape(*lead, w.shape[1]), rule if train else None


# ---------------------------------------------------------------------------
# Windowing


def window_partition(x: np.ndarray, M: int, shift: int = 0) -> np.ndarray:
    """Rotate (..., T, C) rows left by ``shift``, then chunk into (..., T/M, M, C).

    Only admissible geometries are accepted: the scale must divide the token
    count exactly.
    """
    *lead, T, C = x.shape
    if M < 1 or T % M != 0:
        raise AdmissibilityError(f"window scale {M} does not divide token count {T}")
    if not 0 <= shift < M:
        raise AdmissibilityError(f"shift {shift} must lie in [0, {M})")
    if shift:
        x = np.roll(x, -shift, axis=-2)
    return x.reshape(*lead, T // M, M, C)


def window_unpartition(windows: np.ndarray, shift: int = 0) -> np.ndarray:
    """Exact inverse of :func:`window_partition`."""
    *lead, nW, M, C = windows.shape
    x = windows.reshape(*lead, nW * M, C)
    return np.roll(x, shift, axis=-2) if shift else x


# ---------------------------------------------------------------------------
# Branch sublayers: numpy rules that return their backward rule


def _standardize(x: np.ndarray):
    """Rows of ``x`` standardized over the last axis: (xhat, 1/sqrt(var + eps))."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= inv
    return xhat, inv


def _standardize_grad(dxhat: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Gradient through :func:`_standardize` given the gradient ``dxhat`` of its rows."""
    dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
    dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx *= inv
    return dx


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """LN's gain and bias on standardized rows: xhat * gamma + beta."""
    if gamma.shape != xhat.shape[-1:] or beta.shape != xhat.shape[-1:]:
        raise DimensionError(f"layernorm gain/bias shapes {gamma.shape}/{beta.shape} do not "
                             f"match width {xhat.shape[-1]}")
    return xhat * gamma + beta


@functools.cache
def _relative_offsets(M: int) -> np.ndarray:
    """The read-only (M, M) grid i - j + M - 1 of bias-table columns, one per scale."""
    offs = np.arange(M)[:, None] - np.arange(M)[None, :] + (M - 1)
    offs.flags.writeable = False
    return offs


def window_attention(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, w_qkv: np.ndarray,
                     wz: np.ndarray, bias_table: np.ndarray, M: int, heads: int, shift: int = 0,
                     attn_dropout: float = 0.0, train: bool = False,
                     uniforms: np.ndarray | None = None):
    """Attention unpartition(attention(partition(xhat * gamma + beta))) on arrays.

    xhat: (..., T, C), LN's standardized rows; the caller adds the residual.
    Per window of M tokens and head h the map is
    softmax(Q_h K_h^T / sqrt(d) + B_h) V_h, where B_h[i, j] reads the head's
    relative-offset table at i - j + M - 1; heads are merged and projected by
    Wz.  In training, inverted dropout hits the map: an entry is kept where its
    draw in ``uniforms`` is >= ``attn_dropout``.  ``uniforms`` holds one draw
    per map entry, shaped (records, T/M, heads, M, M) with the leading axes
    of xhat flattened into records.  Q, K and V come from one (rows, C) @
    (C, 3C) product over ``w_qkv`` = ``[Wq|Wk|Wv]``, and weight gradients are
    2-D products over all rows.  Returns (out, attn, backward): attn (...,
    T/M, heads, M, M) holds the probabilities before dropout, and
    ``backward(g)`` the gradients of the six array arguments (``xhat``'s
    first), or is None outside training.

    For backward the rule keeps ``xhat`` (no copy, and no LN state of its
    own), the maps and, with dropout, the boolean keep-mask.  Backward
    rebuilds the rest with the forward's own operations on the same inputs:
    the LN output once, for the QKV product and its weight gradient; Q, K
    and V from that product; the float mask; and the dropped-out maps once,
    for the merged heads (Wz's gradient) and V's gradient.  It frees each
    intermediate once read.  The rebuilt values are bitwise what the forward
    used: parameters change only between passes.
    """
    *lead, T, C = xhat.shape
    d, nW = C // heads, T // M
    if bias_table.shape != (heads, 2 * M - 1):
        raise DimensionError(f"bias table shape {bias_table.shape} does not match {heads} heads "
                             f"at window scale {M} (need ({heads}, {2 * M - 1}))")
    drop = train and attn_dropout > 0.0
    maps = (math.prod(lead), nW, heads, M, M)
    if drop and np.shape(uniforms) != maps:
        raise ValueError(f"dropout in training mode needs uniforms of the attention maps' "
                         f"shape {maps}, got {'none' if uniforms is None else np.shape(uniforms)}")

    h = _affine(xhat, gamma, beta)
    n = h.size // C  # token rows over all records
    qkv = window_partition(tc.matmul(h.reshape(n, C), w_qkv).reshape(-1, T, 3 * C), M, shift)
    del h
    q, k, v = qkv.reshape(-1, nW, M, 3, heads, d).transpose(3, 0, 1, 4, 2, 5)
    scores = tc.matmul(q, k.swapaxes(-1, -2))  # (B, nW, heads, M, M)
    scores *= 1.0 / math.sqrt(d)
    offs = _relative_offsets(M)
    scores += bias_table[:, offs]
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores, out=scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    keep = uniforms >= attn_dropout if drop else None
    z = tc.matmul(attn * (keep / (1.0 - attn_dropout)) if drop else attn, v)
    z = z.transpose(0, 1, 3, 2, 4).reshape(n, C)  # merged heads, window order
    y = window_unpartition(tc.matmul(z, wz).reshape(-1, nW, M, C), shift).reshape(xhat.shape)

    def backward(g):
        h = _affine(xhat, gamma, beta).reshape(n, C)  # as the forward built it
        qkv = window_partition((h @ w_qkv).reshape(-1, T, 3 * C), M, shift)
        q, k, v = qkv.reshape(-1, nW, M, 3, heads, d).transpose(3, 0, 1, 4, 2, 5)
        if drop:
            mask = keep / (1.0 - attn_dropout)
        dropped = attn * mask if drop else attn
        gz = window_partition(g.reshape(-1, T, C), M, shift).reshape(n, C)
        gwz = (dropped @ v).transpose(0, 1, 3, 2, 4).reshape(n, C).T @ gz  # z^T gz
        dz = (gz @ wz.T).reshape(-1, nW, M, heads, d).transpose(0, 1, 3, 2, 4)
        del gz
        dqkv = np.empty((3, *q.shape))
        np.matmul(dropped.swapaxes(-1, -2), dz, out=dqkv[2])
        del dropped
        ds = dz @ v.swapaxes(-1, -2)
        del dz
        if drop:
            ds *= mask
            del mask
        ds -= (ds * attn).sum(axis=-1, keepdims=True)
        ds *= attn
        gtable = np.zeros_like(bias_table)
        np.add.at(gtable, (slice(None), offs), ds.sum(axis=(0, 1)))
        ds *= 1.0 / math.sqrt(d)
        np.matmul(ds, k, out=dqkv[0])
        np.matmul(ds.swapaxes(-1, -2), q, out=dqkv[1])
        dqkv = dqkv.transpose(1, 2, 4, 0, 3, 5).reshape(-1, nW, M, 3 * C)
        dqkv = window_unpartition(dqkv, shift).reshape(n, 3 * C)
        gw = h.T @ dqkv
        del h
        dh = (dqkv @ w_qkv.T).reshape(g.shape)
        return (dh * gamma, (dh * xhat).reshape(n, C).sum(axis=0), dh.reshape(n, C).sum(axis=0),
                gw, gwz, gtable)

    return y, attn.reshape(*lead, nW, heads, M, M), backward if train else None


def mlp_sublayer(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, w1: np.ndarray,
                 b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, train: bool = False):
    """MLP sublayer x + gelu(LN(x) W1 + b1) W2 + b2 on arrays, with the exact GELU u * Phi(u).

    Its products, and their weight gradients, are 2-D products over all
    (..., T) rows.  Returns (out, backward): in training ``backward(g)``
    gives the gradients of the seven array arguments, in order.  Outside
    training it is None, LN's rows are freed first and the normal CDF is taken over
    :data:`_GELU_BLOCK_ROWS` rows at a time, so no second buffer of ``u``'s
    size exists.  The GELU is computed in place.

    For backward the rule keeps LN's standardized rows and scales and the
    normal CDF of the pre-activations ``u``.  Backward rebuilds the LN output
    and from it ``u`` with the forward's own operations, so they are bitwise
    what the forward used: parameters change only between passes.  It takes
    the GELU output into one buffer for W2's gradient, builds d GELU/du in
    that buffer, and writes ``g @ W2.T`` into ``u``'s.
    """
    C = w1.shape[0]
    xhat, inv = _standardize(x)
    u = tc.matmul(_affine(xhat, gamma, beta).reshape(-1, C), w1)
    n = u.shape[0]
    if not train:
        del xhat
    u += b1
    if train:
        cdf = ndtr(u)  # the normal CDF: GELU(u) = u * cdf
        u *= cdf
    else:  # no u-sized CDF buffer: one block of rows at a time
        for start in range(0, n, _GELU_BLOCK_ROWS):
            block = u[start : start + _GELU_BLOCK_ROWS]
            block *= ndtr(block)
    y = tc.matmul(u, w2)
    y += b2
    y = y.reshape(x.shape)
    y += x

    def backward(g):
        gy = g.reshape(n, C)
        h = _affine(xhat, gamma, beta).reshape(n, C)  # as the forward built it
        u = h @ w1
        u += b1
        gelu = u * cdf
        gw2 = gelu.T @ gy
        dgelu = np.multiply(u, -0.5, out=gelu)  # d GELU / du = cdf + u exp(-u^2 / 2) / sqrt(2 pi)
        dgelu *= u
        np.exp(dgelu, out=dgelu)
        dgelu *= u
        dgelu *= _INV_SQRT_2PI
        dgelu += cdf
        du = np.matmul(gy, w2.T, out=u)
        du *= dgelu
        del dgelu
        gw1 = h.T @ du
        del h
        dh = (du @ w1.T).reshape(g.shape)
        dx = _standardize_grad(dh * gamma, xhat, inv)
        dx += g
        return (dx, (dh * xhat).reshape(n, C).sum(axis=0), dh.reshape(n, C).sum(axis=0), gw1,
                du.sum(axis=0), gw2, gy.sum(axis=0))

    return y, backward if train else None


# ---------------------------------------------------------------------------
# Block, heads, fusion


_BRANCH_LEAVES = ("ln1.gamma", "ln1.beta", "attn.Wq", "attn.Wk", "attn.Wv", "attn.Wz",
                  "attn.bias", "ln2.gamma", "ln2.beta", "mlp.W1", "mlp.b1", "mlp.W2", "mlp.b2")


def _chunk_spans(n: int, T: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` spans over ``n`` records of ``T`` token rows.

    Each span holds the largest power of two of records whose token rows fit
    :data:`PREDICT_TOKEN_ROWS` (at least one), except the last, which holds
    what is left; a 1-record tail joins the span before it, so no tail runs
    as a matrix-vector product.  Power-of-two spans start on the BLAS
    kernels' row tiles, so a record's rows meet the same kernel path whatever
    span it falls in.  :func:`predict` runs one forward per span, and
    :func:`msw_block` one pool task per branch and span in training.
    """
    per_chunk = 1 << (max(1, PREDICT_TOKEN_ROWS // T).bit_length() - 1)
    starts = list(range(0, n, per_chunk))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()  # no 1-record tail
    return list(zip(starts, [*starts[1:], n]))


def msw_block(tokens: np.ndarray, cfg: MswConfig, params, train: bool = False,
              rng: np.random.Generator | None = None, maps: bool = True):
    """Run the single block once per window scale on shared input tokens.

    Per branch: x' = x + windowed-attention(LN(x)); y = x' + MLP(LN(x')).
    Branches own their parameters, read from ``params`` by name; only the
    input, and so LN1's standardized rows of it, are shared.  Each branch's
    ``[Wq|Wk|Wv]`` is joined once, for all its chunks.  Training draws every
    branch's dropout uniforms for the whole batch from ``rng`` in branch
    order first, so no mask depends on the thread or the chunking.

    Returns (stacked, attn, rule).  ``stacked`` holds every branch's tokens
    on a leading axis, (n_branches, ..., T, C).  ``attn`` holds each
    branch's pre-dropout maps, (..., T/M, heads, M, M), or is empty if
    ``maps`` is false.  ``rule`` is None outside training.

    In training the records are cut into :func:`_chunk_spans`, the chunks
    :func:`predict` runs, and :func:`_on_pool` runs one task per (branch,
    chunk): the branch's attention and MLP rules on the chunk's records.  At
    one chunk the tasks read the arrays as they are and the maps are the
    rules' own; at more, each task reads views of its records and each
    branch's maps are joined into one array.  ``rule(g, grads)`` runs on the
    pool too, per task the MLP rule, then the attention rule.  It drops a
    task's MLP rule once it has run and its attention rule as the task
    finishes, so a later task does not run beside an earlier one's saved
    arrays.  Per chunk it adds the residual and the standardized rows'
    gradients in branch order, then takes LN1's input step, and returns the
    block input's gradient; each branch's parameter gradients are summed
    over its chunks in chunk order and written into ``grads``.  Outside
    training the block runs the whole batch, branch after branch, in the
    caller's thread.
    """
    *lead, T, C = tokens.shape
    B, nb = math.prod(lead), cfg.n_branches
    branch_params = [[params[f"branch{i}.{leaf}"] for leaf in _BRANCH_LEAVES] for i in range(nb)]
    w_qkv = [np.concatenate(p[2:5], axis=1) for p in branch_params]
    uniforms = [None] * nb
    if train and cfg.attn_dropout > 0.0:
        if rng is None:
            raise ValueError("dropout in training mode needs an explicit rng")
        uniforms = [rng.random((B, T // M, cfg.heads, M, M)) for M in cfg.windows]
    xhat, inv = _standardize(tokens)  # LN1's rows, shared by every branch
    spans = (_chunk_spans(B, T) if train else []) or [(0, B)]
    k = len(spans)

    def records(a, start, stop):  # records start..stop of a (..., T, width) array
        return a if k == 1 else a.reshape(B, *a.shape[-2:])[start:stop]

    def joined(chunks):  # one (..., rest) array from the chunks' (records, rest) arrays
        if k == 1:
            return chunks[0]
        return np.concatenate(chunks).reshape(*lead, *chunks[0].shape[1:])

    tasks = [(i, span) for i in range(nb) for span in spans]  # task i * k + c: chunk c of branch i

    def run(task):
        i, (start, stop) = task
        p = branch_params[i]
        drawn = None if uniforms[i] is None else uniforms[i][start:stop]
        x1, attn, attn_rule = window_attention(records(xhat, start, stop), p[0], p[1], w_qkv[i],
                                               *p[5:7], cfg.windows[i], cfg.heads, cfg.shift,
                                               attn_dropout=cfg.attn_dropout, train=train,
                                               uniforms=drawn)
        x1 += records(tokens, start, stop)
        y, mlp_rule = mlp_sublayer(x1, *p[7:], train=train)
        return y, attn if maps else None, (mlp_rule, attn_rule)

    results = _on_pool(run, tasks) if train else list(map(run, tasks))
    stacked = np.empty((nb, *lead, T, C))
    for (i, (start, stop)), (y, _, _) in zip(tasks, results):
        records(stacked[i], start, stop)[...] = y
    attn = tuple(joined([r[1] for r in results[i * k : (i + 1) * k]])
                 for i in range(nb)) if maps else ()
    task_rules = [r[2] for r in results]
    del results
    if not train:
        return stacked, attn, None

    def rule(g, grads):
        def task_grads(t):  # (dx', dxhat, *attention parameter gradients, *MLP ones)
            i, (start, stop) = tasks[t]
            mlp_rule, attn_rule = task_rules[t]
            task_rules[t] = None
            dx1, *dmlp = mlp_rule(records(g[i], start, stop))
            del mlp_rule
            return (dx1, *attn_rule(dx1), *dmlp)

        per_task = _on_pool(task_grads, range(len(tasks)))

        def chunk_dx(c):  # the block input's gradient on chunk c's records
            gs = per_task[c::k]  # one task per branch, in branch order
            dx = sum((gi[0] for gi in gs[1:]), gs[0][0])
            dxhat = sum((gi[1] for gi in gs[1:]), gs[0][1])
            dx += _standardize_grad(dxhat, records(xhat, *spans[c]), records(inv, *spans[c]))
            return dx

        dx = joined([chunk_dx(c) for c in range(k)])
        for i in range(nb):
            sums = [sum((per_task[i * k + c][j] for c in range(1, k)), per_task[i * k][j])
                    for j in range(2, len(per_task[0]))]
            sums[2:3] = np.split(sums[2], 3, axis=1)  # [Wq|Wk|Wv]'s gradient, per weight
            for leaf, total in zip(_BRANCH_LEAVES, sums):
                grads[f"branch{i}.{leaf}"][...] = total
        return dx

    return stacked, attn, rule


def fuse(branch_tokens: np.ndarray, windows, params, train: bool = False):
    """Pooled heads, learned fusion and sigmoid.

    ``branch_tokens`` stacks each branch's (..., T, C) tokens on a leading
    axis, (n_branches, ..., T, C), as :func:`msw_block` gives them; branch
    i's head is ``branch{i}.head.W``/``.b`` in ``params``.  Branch i
    mean-pools each window of M_i tokens, concatenates the (T/M_i) pooled
    vectors and projects them to K logits alpha_i = pooled @ W_i + b_i; the
    pooled width differs per branch, which is what makes the fused feature
    vectors complementary.  Then beta = softmax(concat(alphas) @ fusion.W)
    and y = sigmoid(sum_i beta_i alpha_i).  With fusion.W = 0 the weights
    are exactly uniform.  Returns (y (..., K), beta (..., n_branches), rule),
    the rule None outside training.
    """
    nb, *lead, T, C = branch_tokens.shape
    head_ws = [params[f"branch{i}.head.W"] for i in range(nb)]
    fusion_w = params["fusion.W"]
    K = head_ws[0].shape[1]
    if fusion_w.shape != (nb * K, nb):
        raise DimensionError(f"fusion weight shape {fusion_w.shape} does not match "
                             f"({nb * K}, {nb})")
    pooled, alphas = [], []
    for i, (x, M, w) in enumerate(zip(branch_tokens, windows, head_ws)):
        if T % M != 0:
            raise AdmissibilityError(f"window scale {M} does not divide token count {T}")
        rows = x.reshape(*lead, T // M, M, C).mean(axis=-2).reshape(-1, (T // M) * C)
        pooled.append(rows)
        alphas.append(tc.matmul(rows, w) + params[f"branch{i}.head.b"])
    n = pooled[0].shape[0]
    stacked = np.stack(alphas, axis=-2)  # (n, nb, K)
    s = tc.matmul(stacked.reshape(n, nb * K), fusion_w)
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    beta = e / e.sum(axis=-1, keepdims=True)
    y = expit((beta[:, :, None] * stacked).sum(axis=-2))

    def rule(g, grads):
        dz = g.reshape(n, K) * y * (1.0 - y)
        dbeta = (dz[:, None, :] * stacked).sum(axis=-1)
        ds = dbeta - (dbeta * beta).sum(axis=-1, keepdims=True)
        ds *= beta
        dstacked = (ds @ fusion_w.T).reshape(n, nb, K)
        dstacked += dz[:, None, :] * beta[:, :, None]
        dx = np.empty((nb, *lead, T, C))
        for i, (M, w, rows, da) in enumerate(zip(windows, head_ws, pooled,
                                                  dstacked.transpose(1, 0, 2))):
            grads[f"branch{i}.head.W"][...] = rows.T @ da
            grads[f"branch{i}.head.b"][...] = da.sum(axis=0)
            dp = (da @ w.T).reshape(*lead, T // M, 1, C) / M
            dx[i].reshape(*lead, T // M, M, C)[...] = dp  # spread over each window's tokens
        grads["fusion.W"][...] = stacked.reshape(n, nb * K).T @ ds
        return dx

    return y.reshape(*lead, K), beta.reshape(*lead, nb), rule if train else None


def forward(
    record,
    cfg: MswConfig,
    params: ParamStore,
    train: bool = False,
    rng: np.random.Generator | None = None,
    maps: bool = True,
) -> ForwardResult:
    """Full pass over one record (n_leads, L) or a batch (B, n_leads, L).

    Deterministic when ``train`` is false (dropout is then the identity, and
    no rule is built).  With ``maps`` false the result's ``attn`` is empty,
    and an evaluation forward drops each branch's maps as soon as the branch
    has run.
    """
    tokens, embed_rule = linear_embed(patch_split(record, cfg), params, train)
    stacked, attn, block_rule = msw_block(tokens, cfg, params, train=train, rng=rng, maps=maps)
    probs, beta, fuse_rule = fuse(stacked, cfg.windows, params, train)
    return ForwardResult(probs=probs, beta=beta, attn=attn,
                         rules=[embed_rule, block_rule, fuse_rule] if train else [])


# ---------------------------------------------------------------------------
# The worker pool


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_thread_calls():
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, or None for another BLAS."""
    try:  # the extension's handle also resolves the BLAS library it links
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            set_.argtypes = [ctypes.c_int]
            return get, set_
    return None


_blas_share_lock = threading.Lock()
_blas_share = {"depth": 0, "saved": 0}  # overlapping share-outs, the count before the first


@contextlib.contextmanager
def _blas_threads_shared_by(workers: int):
    """Give each of ``workers`` threads an equal share of OpenBLAS's threads, then restore.

    Each worker calling a BLAS that itself runs one thread per CPU would put
    ``workers`` times as many busy threads as CPUs.  The count is process-wide,
    so other threads' BLAS calls get the same share meanwhile.  Overlapping
    callers (two threads each calling :func:`predict`) nest: the first entry
    saves the count and shares it out, and the last exit restores it.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_share_lock:
        if _blas_share["depth"] == 0:
            _blas_share["saved"] = get()
            set_(max(1, _blas_share["saved"] // workers))
        _blas_share["depth"] += 1
    try:
        yield
    finally:
        with _blas_share_lock:
            _blas_share["depth"] -= 1
            if _blas_share["depth"] == 0:
                set_(_blas_share["saved"])


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The persistent pool of ``workers`` threads, built on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="mswecg")


def _on_pool(fn, items) -> list:
    """``[fn(item) for item in items]``, each call on a thread of the worker pool.

    This is the pool's whole contract.  The pool has ``min(PREDICT_WORKERS,
    usable CPUs)`` threads, is built on first use and lives as long as the
    process.  It runs :func:`predict`'s chunks and a training step's block
    sublayer rules, one task per (window-scale branch, chunk), forward and
    backward (:func:`msw_block`); both size their chunks by
    :func:`_chunk_spans`.  A step's stage rules run in the caller's thread
    (``tensor.backward``); only the block's sublayer rules run on the pool.
    No call made on the pool may submit to it in turn: an evaluation forward
    runs its branches in its own thread, so a chunk never does.  Each call
    runs in a copy of the caller's context, so an active ``MacCounter``
    (which adds under a lock) and ``np.errstate`` hold inside it.  Results
    come in item order.  If a call raises, the calls not yet started are
    cancelled, the running ones are waited for, and the first failing item's
    error is raised.  While the calls run, numpy's OpenBLAS (where it is
    OpenBLAS) has its threads shared out among the busy workers, so two
    workers on two CPUs use one BLAS thread each rather than two.
    """
    items = list(items)
    workers = max(1, min(PREDICT_WORKERS, _usable_cpus()))
    ctxs = [contextvars.copy_context() for _ in items]
    with _blas_threads_shared_by(max(1, min(workers, len(items)))):
        futures = [_pool(workers).submit(ctx.run, fn, item) for ctx, item in zip(ctxs, items)]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:
                f.cancel()
            wait(futures)


def predict(signals, cfg: MswConfig, params: ParamStore, rows=None) -> np.ndarray:
    """Evaluation-mode probabilities (N, K) of ``signals[rows]`` (default: all rows).

    ``signals`` is a float64 ``(N, n_leads, L)`` array or a
    :class:`~mswecg.data.StandardizedRows` view.  Each evaluation forward gathers
    and runs one chunk of :func:`_chunk_spans`: the largest power of two of
    records whose token rows fit :data:`PREDICT_TOKEN_ROWS` (at least one),
    with a 1-record tail joined to the chunk before it.  Power-of-two chunks
    start on the BLAS kernels' row tiles, so outputs are bitwise reproducible
    for a geometry and equal the former 64-record chunks' bar their 1-record
    tails.  The forward is asked for no attention maps, so it drops each
    branch's maps once the branch has run.  It is the module-level
    :func:`forward`, looked up at each call.

    Chunks run through :func:`_on_pool`, each gathering its own rows and
    writing its own slice of the output, so outputs are bitwise equal to a
    serial loop's.  Memory is bounded by the pool's width in chunks, not by
    N: two chunks in flight at 1,024 token rows hold what one 2,048-row chunk
    would.  A row outside ``0..N-1`` raises :class:`IndexError` before any
    chunk runs.  Raises :class:`NumericError` naming the first non-finite
    ``signals`` row of the first chunk holding one.
    """
    idx = np.arange(len(signals)) if rows is None else np.asarray(rows)
    outside = (idx < 0) | (idx >= len(signals))
    if outside.any():
        raise IndexError(f"row {idx[outside][0]} outside 0..{len(signals) - 1}")
    out = np.empty((len(idx), cfg.K))

    def run_chunk(start: int, stop: int) -> None:
        chunk = idx[start:stop]
        probs = forward(signals[chunk], cfg, params, maps=False).probs
        bad = np.argwhere(~np.isfinite(probs))
        if bad.size:
            row, k = bad[0]
            raise NumericError(f"non-finite probability {probs[row, k]} for record "
                               f"{chunk[row]}, class {k}")
        out[start:stop] = probs

    _on_pool(lambda span: run_chunk(*span), _chunk_spans(len(idx), cfg.tokens))
    return out
