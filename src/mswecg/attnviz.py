"""Attention-score extraction and export as JSON plus static SVG heatmaps.

The per-token saliency is "attention received": for each token, the mean
over heads and query rows of its column inside its window.  Branch score
vectors are min-max normalized to [0, 1] (a constant vector maps to all
0.5), combined with the fusion weights, and normalized once more, so the
exported per-sample scores always span the colormap.

SVG exports draw one 1200x200 panel per lead; the waveform polyline is
segment-colored by a linear blue (score 0, #0000ff) to red (score 1,
#ff0000) map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import MswConfig
from .errors import DataError, DimensionError, NumericError
from .model import ForwardResult, forward, window_unpartition
from .params import ParamStore

SVG_WIDTH = 1200
SVG_HEIGHT = 200
SVG_MARGIN = 10


@dataclass(frozen=True)
class WindowDump:
    start_patch: int
    heads: int
    attn: np.ndarray  # (heads, M, M), rows sum to 1


@dataclass(frozen=True)
class BranchDump:
    M: int
    shift: int
    windows: tuple[WindowDump, ...]
    token_scores: np.ndarray  # (T,), raw attention-received means


@dataclass(frozen=True)
class AttentionDump:
    record_id: str
    beta: np.ndarray  # (n_branches,) fusion weights
    branches: tuple[BranchDump, ...]
    fused_token_scores: np.ndarray  # (T,) in [0, 1]
    fused_sample_scores: np.ndarray  # (L,) in [0, 1]


def token_scores(attn: np.ndarray, shift: int, T: int) -> np.ndarray:
    """Per-token attention received, in original token order.

    attn: (nW, heads, M, M) windowed attention over the shift-rotated
    sequence.  Token scores are column means (over heads and query rows),
    then :func:`~mswecg.model.window_unpartition` undoes the rotation.
    """
    n_w, _, m, m2 = attn.shape
    if m != m2 or n_w * m != T:
        raise DimensionError(f"attention stack {attn.shape} does not tile {T} tokens")
    rotated = attn.mean(axis=(1, 2))[..., None]  # column mean per rotated position
    return window_unpartition(rotated, shift).reshape(T)


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """Map to [0, 1]; a constant vector maps to all 0.5."""
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo == 0.0:
        return np.full_like(scores, 0.5)
    return (scores - lo) / (hi - lo)


def fuse_scores(branch_scores: list[np.ndarray], beta: np.ndarray) -> np.ndarray:
    """Fusion-weighted sum of normalized branch scores, renormalized to [0, 1]."""
    beta = np.asarray(beta, dtype=np.float64)
    if len(branch_scores) != beta.shape[0]:
        raise DimensionError(
            f"{len(branch_scores)} branch score vectors but {beta.shape[0]} fusion weights"
        )
    length = branch_scores[0].shape[0]
    for s in branch_scores:
        if s.shape != (length,):
            raise DimensionError("branch score vectors have mismatched lengths")
    fused = np.zeros(length)
    for w, s in zip(beta, branch_scores):
        fused += w * minmax_normalize(s)
    return minmax_normalize(fused)


def expand_to_samples(scores: np.ndarray, P: int) -> np.ndarray:
    """Repeat each token score across its P samples."""
    return np.repeat(np.asarray(scores, dtype=np.float64), P)


def build_dump(record_id: str, result: ForwardResult, cfg: MswConfig) -> AttentionDump:
    """Assemble the exportable dump from one single-record forward pass.

    Each branch's scale comes from ``cfg.windows`` and the shift from
    ``cfg.shift``.  Raises :class:`NumericError` naming the first branch
    whose attention map (and window) or fusion weight is not finite.
    """
    T, shift = cfg.tokens, cfg.shift
    branches = []
    for M, attn in zip(cfg.windows, result.attn):
        if attn.ndim != 4:
            raise DimensionError(
                "build_dump needs a single-record forward pass (unbatched attention)"
            )
        bad = np.flatnonzero(~np.isfinite(attn).all(axis=(1, 2, 3)))
        if bad.size:
            raise NumericError(f"branch M={M}: non-finite attention in window {bad[0]}")
        windows = tuple(WindowDump(start_patch=(w * M + shift) % T, heads=cfg.heads, attn=a)
                        for w, a in enumerate(attn))
        branches.append(BranchDump(M=M, shift=shift, windows=windows,
                                   token_scores=token_scores(attn, shift, T)))
    bad = np.flatnonzero(~np.isfinite(result.beta))
    if bad.size:
        raise NumericError(f"branch M={cfg.windows[bad[0]]}: non-finite fusion weight beta "
                           f"{result.beta[bad[0]]}")
    fused_tokens = fuse_scores([br.token_scores for br in branches], result.beta)
    return AttentionDump(
        record_id=record_id,
        beta=result.beta,
        branches=tuple(branches),
        fused_token_scores=fused_tokens,
        fused_sample_scores=expand_to_samples(fused_tokens, cfg.P),
    )


def dump_for_record(record_id: str, signal: np.ndarray, cfg: MswConfig,
                    params: ParamStore) -> AttentionDump:
    """The dump of an evaluation-mode forward pass on one (n_leads, L) record."""
    return build_dump(record_id, forward(signal, cfg, params), cfg)


# ---------------------------------------------------------------------------
# Export


def dump_to_json_dict(dump: AttentionDump, config: dict | None = None) -> dict:
    out = {
        "record_id": dump.record_id,
        "beta": dump.beta.tolist(),
        "branches": [
            {
                "M": br.M,
                "windows": [
                    {
                        "start_patch": w.start_patch,
                        "heads": w.heads,
                        "attn": w.attn.tolist(),
                    }
                    for w in br.windows
                ],
                "token_scores": br.token_scores.tolist(),
            }
            for br in dump.branches
        ],
        "fused_sample_scores": dump.fused_sample_scores.tolist(),
    }
    if config is not None:
        out["config"] = config
    return out


def score_color(score: float) -> str:
    """Linear blue -> red colormap over [0, 1]."""
    s = min(max(float(score), 0.0), 1.0)
    return f"rgb({round(255 * s)},0,{round(255 * (1 - s))})"


def lead_svg(samples: np.ndarray, scores: np.ndarray, title: str = "",
             metadata: str = "") -> str:
    """One lead's waveform as per-sample colored line segments."""
    samples = np.asarray(samples, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if samples.shape != scores.shape:
        raise DimensionError(f"waveform {samples.shape} and scores {scores.shape} differ")
    n = samples.shape[0]
    lo, hi = float(samples.min()), float(samples.max())
    span = (hi - lo) or 1.0
    xs = SVG_MARGIN + (SVG_WIDTH - 2 * SVG_MARGIN) * np.arange(n) / max(n - 1, 1)
    ys = SVG_HEIGHT - SVG_MARGIN - (SVG_HEIGHT - 2 * SVG_MARGIN) * (samples - lo) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f"<desc>colormap: rgb(0,0,255) at score 0 to rgb(255,0,0) at score 1"
        f"{'; ' + metadata if metadata else ''}</desc>",
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{SVG_MARGIN}" y="{SVG_MARGIN + 4}" font-size="10">{title}</text>')
    for i in range(n - 1):
        parts.append(
            f'<line x1="{xs[i]:.2f}" y1="{ys[i]:.2f}" x2="{xs[i + 1]:.2f}" '
            f'y2="{ys[i + 1]:.2f}" stroke="{score_color(scores[i])}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def export(
    dump: AttentionDump,
    signal: np.ndarray,
    out_dir,
    leads=(),
    config: dict | None = None,
) -> list[Path]:
    """Write ``<id>.json`` plus one ``<id>_lead<j>.svg`` per requested lead."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        json_path = out_dir / f"{dump.record_id}.json"
        json_path.write_text(json.dumps(dump_to_json_dict(dump, config)))
        written.append(json_path)
        signal = np.asarray(signal, dtype=np.float64)
        metadata = json.dumps(config) if config else ""
        for lead in leads:
            if not 0 <= lead < signal.shape[0]:
                raise DataError(f"lead {lead} outside 0..{signal.shape[0] - 1}")
            svg_path = out_dir / f"{dump.record_id}_lead{lead}.svg"
            svg_path.write_text(
                lead_svg(signal[lead], dump.fused_sample_scores,
                         title=f"{dump.record_id} lead {lead}", metadata=metadata)
            )
            written.append(svg_path)
        return written
    except OSError as exc:
        raise DataError(f"attention export failed under {out_dir}: {exc}") from exc
