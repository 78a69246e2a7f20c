"""Multi-scale windowed-attention network over patched multilead signals.

One record flows as: patch split -> linear embedding -> a single block run
once per window scale (windowed multi-head attention with relative position
bias, then a GELU MLP, residuals around both) -> per-branch window pooling
and projection to class logits -> learned softmax-weighted fusion -> sigmoid
probabilities.

All functions accept arbitrary leading axes, so the same code serves a
single record (T, C) and a batch (B, T, C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .config import MswConfig
from .errors import AdmissibilityError, DimensionError, NumericError
from .params import ParamStore
from .tensor import Tensor


@dataclass
class BranchOutput:
    """One window-scale pathway: attended tokens, attention maps, logits."""

    M: int
    shift: int
    tokens: Tensor  # (..., T, C) block output
    attn: Tensor  # (..., nW, heads, M, M) softmax probabilities (pre-dropout)
    alpha: Tensor | None = None  # (..., K), filled by branch_project


@dataclass
class ForwardResult:
    probs: Tensor  # (..., K) sigmoid outputs
    beta: Tensor  # (..., n_branches) fusion weights
    alphas: list[Tensor]  # per-branch (..., K) logits
    branches: list[BranchOutput]


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


def linear_embed(patches, w_embed: Tensor, b_embed: Tensor) -> Tensor:
    """Project raw patch rows into the block's embedding width."""
    return tc.linear(tc.tensor(patches) if isinstance(patches, np.ndarray) else patches,
                     w_embed, b_embed)


# ---------------------------------------------------------------------------
# Windowing


def window_partition(tokens: Tensor, M: int, shift: int = 0) -> Tensor:
    """Rotate tokens left by ``shift``, then chunk into (..., T/M, M, C).

    Only admissible geometries are accepted: the scale must divide the token
    count exactly.
    """
    *lead, T, C = tokens.shape
    if M < 1 or T % M != 0:
        raise AdmissibilityError(f"window scale {M} does not divide token count {T}")
    if not 0 <= shift < M:
        raise AdmissibilityError(f"shift {shift} must lie in [0, {M})")
    x = tc.roll(tokens, -shift, axis=-2) if shift else tokens
    return tc.reshape(x, (*lead, T // M, M, C))


def window_unpartition(windows: Tensor, shift: int = 0) -> Tensor:
    """Exact inverse of :func:`window_partition`."""
    *lead, nW, M, C = windows.shape
    x = tc.reshape(windows, (*lead, nW * M, C))
    return tc.roll(x, shift, axis=-2) if shift else x


def relative_bias(table: Tensor, M: int) -> Tensor:
    """Expand per-head offset tables (heads, 2M-1) to logit biases (heads, M, M).

    Entry (h, i, j) reads the table at offset i - j + M - 1, covering every
    relative position in [-(M-1), M-1].
    """
    heads, width = table.shape
    if width != 2 * M - 1:
        raise DimensionError(
            f"bias table width {width} does not match window scale {M} (need {2 * M - 1})"
        )
    offs = np.arange(M)[:, None] - np.arange(M)[None, :] + (M - 1)  # (M, M)
    out = table.data[:, offs]

    def fn(g):
        if not table.requires_grad:
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, (np.arange(heads)[:, None], offs.reshape(1, -1)), g.reshape(heads, -1))
        return (gt,)

    return tc.apply_op("relative_bias", (table,), out, fn)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    # (..., M, C) -> (..., heads, M, C/heads)
    *lead, M, C = x.shape
    y = tc.reshape(x, (*lead, M, heads, C // heads))
    n = y.ndim
    return tc.transpose(y, (*range(n - 3), n - 2, n - 3, n - 1))


def _merge_heads(x: Tensor) -> Tensor:
    # (..., heads, M, d) -> (..., M, heads*d)
    *lead, h, M, d = x.shape
    n = x.ndim
    y = tc.transpose(x, (*range(n - 3), n - 2, n - 3, n - 1))
    return tc.reshape(y, (*lead, M, h * d))


def window_attention(
    windows: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wz: Tensor,
    bias_table: Tensor,
    heads: int,
    attn_dropout: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Biased scaled-dot-product attention within each window.

    windows: (..., M, C).  Per head h the map is
    softmax(Q_h K_h^T / sqrt(d) + B_h) V_h, outputs re-merged and projected.
    Returns (out (..., M, C), attn (..., heads, M, M)); the returned
    attention is the softmax output, before any dropout.
    """
    *_, M, C = windows.shape
    d = C // heads
    q = _split_heads(tc.matmul(windows, wq), heads)
    k = _split_heads(tc.matmul(windows, wk), heads)
    v = _split_heads(tc.matmul(windows, wv), heads)
    n = k.ndim
    kt = tc.transpose(k, (*range(n - 2), n - 1, n - 2))
    scores = tc.scale(tc.matmul(q, kt), 1.0 / math.sqrt(d))
    scores = tc.add(scores, relative_bias(bias_table, M))
    attn = tc.softmax_lastdim(scores)
    a = tc.dropout(attn, attn_dropout, train, rng)
    z = _merge_heads(tc.matmul(a, v))
    return tc.matmul(z, wz), attn


# ---------------------------------------------------------------------------
# Block, heads, fusion


def _branch_params(params: ParamStore, i: int):
    return lambda leaf: params[f"branch{i}.{leaf}"]


def msw_block(
    tokens: Tensor,
    cfg: MswConfig,
    params: ParamStore,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> list[BranchOutput]:
    """Run the single block once per window scale on shared input tokens.

    Per branch: x' = x + windowed-attention(LN(x)); y = x' + MLP(LN(x')).
    Branches own their parameters; only the input is shared.
    """
    outs = []
    for i, M in enumerate(cfg.windows):
        p = _branch_params(params, i)
        h = tc.layernorm(tokens, p("ln1.gamma"), p("ln1.beta"))
        w = window_partition(h, M, cfg.shift)
        attended, attn = window_attention(
            w, p("attn.Wq"), p("attn.Wk"), p("attn.Wv"), p("attn.Wz"),
            p("attn.bias"), cfg.heads,
            attn_dropout=cfg.attn_dropout, train=train, rng=rng,
        )
        x1 = tc.add(tokens, window_unpartition(attended, cfg.shift))
        h2 = tc.layernorm(x1, p("ln2.gamma"), p("ln2.beta"))
        m = tc.linear(h2, p("mlp.W1"), p("mlp.b1"))
        m = tc.gelu(m)
        m = tc.linear(m, p("mlp.W2"), p("mlp.b2"))
        y = tc.add(x1, m)
        outs.append(BranchOutput(M=M, shift=cfg.shift, tokens=y, attn=attn))
    return outs


def branch_project(branch_tokens: Tensor, M: int, w: Tensor, b: Tensor) -> Tensor:
    """Mean-pool each window of M tokens, concatenate, project to K logits.

    The pooled width (T/M)*C differs per branch, which is what makes the
    fused feature vectors complementary.
    """
    *lead, T, C = branch_tokens.shape
    if T % M != 0:
        raise AdmissibilityError(f"window scale {M} does not divide token count {T}")
    nW = T // M
    pooled = tc.mean(tc.reshape(branch_tokens, (*lead, nW, M, C)), axis=-2)
    rows = tc.reshape(pooled, (-1, nW * C))
    logits = tc.add(tc.matmul(rows, w), b)
    return tc.reshape(logits, (*lead, w.shape[1]))


def fuse(alphas: list[Tensor], w_fuse: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax-weighted convex combination of branch logits, then sigmoid.

    beta = softmax(concat(alphas) @ w_fuse); y = sigmoid(sum_i beta_i alpha_i).
    With w_fuse = 0 the weights are exactly uniform.
    """
    nb = len(alphas)
    *lead, K = alphas[0].shape
    for a in alphas[1:]:
        if a.shape != alphas[0].shape:
            raise DimensionError(f"branch logit shapes differ: {alphas[0].shape} vs {a.shape}")
    if w_fuse.shape != (nb * K, nb):
        raise DimensionError(
            f"fusion weight shape {w_fuse.shape} does not match ({nb * K}, {nb})"
        )
    stacked = tc.concat([tc.reshape(a, (*lead, 1, K)) for a in alphas], axis=-2)
    rows = tc.reshape(stacked, (-1, nb * K))
    beta = tc.softmax_lastdim(tc.reshape(tc.matmul(rows, w_fuse), (*lead, nb)))
    weighted = tc.mul(tc.reshape(beta, (*lead, nb, 1)), stacked)
    y = tc.sigmoid(tc.sum(weighted, axis=-2))
    return y, beta


def forward(
    record,
    cfg: MswConfig,
    params: ParamStore,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Full pass over one record (n_leads, L) or a batch (B, n_leads, L).

    Deterministic when ``train`` is false (dropout is then the identity).
    """
    patches = patch_split(record, cfg)
    tokens = linear_embed(patches, params["embed.W"], params["embed.b"])
    branches = msw_block(tokens, cfg, params, train=train, rng=rng)
    alphas = []
    for i, br in enumerate(branches):
        br.alpha = branch_project(br.tokens, br.M, params[f"branch{i}.head.W"],
                                  params[f"branch{i}.head.b"])
        alphas.append(br.alpha)
    probs, beta = fuse(alphas, params["fusion.W"])
    return ForwardResult(probs=probs, beta=beta, alphas=alphas, branches=branches)


def predict(
    signals: np.ndarray,
    cfg: MswConfig,
    params: ParamStore,
    batch_size: int = 64,
) -> np.ndarray:
    """Evaluation-mode probabilities (B, K) computed in fixed-size chunks.

    Chunking is part of the contract: re-evaluating with the same chunk size
    reproduces results bitwise.  No graph is recorded.  Raises
    :class:`NumericError` naming the first record whose probabilities are
    not finite.
    """
    signals = np.asarray(signals, dtype=np.float64)
    out = np.empty((signals.shape[0], cfg.K))
    with tc.no_grad():
        for start in range(0, signals.shape[0], batch_size):
            chunk = signals[start : start + batch_size]
            probs = forward(chunk, cfg, params).probs.data
            bad = np.argwhere(~np.isfinite(probs))
            if bad.size:
                row, k = bad[0]
                raise NumericError(
                    f"non-finite probability {probs[row, k]} for record {start + row}, class {k}"
                )
            out[start : start + chunk.shape[0]] = probs
    return out
