"""Analytic multiply-accumulate estimators and an instrumented counter.

The analytic forms count only the four matmul phases of one attention pass
(QKV projections, the score product, the value product, and the output
projection); softmax, bias adds, layer norms and MLPs are out of scope:

* global attention over a length-``length`` sequence of width ``channels``
  costs 4*L*C^2 + 2*L^2*C;
* windowed attention restricted to non-overlapping windows of the scales in
  ``windows`` costs 4*L*C^2 + 2*L*C*sum(M_i), with the shared QKV and output
  projections counted once.

``measure_macs`` checks these terms by execution, phase by phase.  It runs
the products of a shared-projection toy pass on random arrays: Q, K, V
and the output projection once over all tokens, and the score and value
products once per window scale.  Each product runs through ``tensor.matmul``,
which counts it from the shapes that ran, on one ``tensor.MacCounter`` per
phase, and the totals must reconcile exactly.  The toy pass is not the model:
the model's products are counted by a ``MacCounter`` around ``model.forward``.
The caller decides whether ``length`` means raw samples or patch tokens.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tc
from .errors import AdmissibilityError, DimensionError

PHASES = ("qkv", "qk", "av", "out")


def omega_msa(length: int, channels: int) -> int:
    """MAC count of one global-attention pass: 4LC^2 + 2L^2C."""
    if length < 0 or channels < 0:
        raise ValueError("length and channels must be non-negative")
    return 4 * length * channels**2 + 2 * length**2 * channels


def omega_mswsa(length: int, channels: int, windows) -> int:
    """MAC count of one multi-scale windowed pass: 4LC^2 + 2LC*sum(M_i)."""
    windows = tuple(int(m) for m in windows)
    if not windows:
        raise ValueError("windows must be non-empty")
    if length < 0 or channels < 0 or any(m < 1 for m in windows):
        raise ValueError("length/channels must be >= 0 and window scales >= 1")
    return 4 * length * channels**2 + 2 * length * channels * sum(windows)


def analytic_phases(tokens: int, channels: int, windows) -> dict[str, int]:
    total_m = sum(int(m) for m in windows)
    return {
        "qkv": 3 * tokens * channels**2,
        "qk": tokens * total_m * channels,
        "av": tokens * total_m * channels,
        "out": tokens * channels**2,
    }


@dataclass(frozen=True)
class ComplexityReport:
    tokens: int
    channels: int
    windows: tuple[int, ...]
    omega_msa: int
    omega_mswsa: int
    measured: dict[str, int]
    analytic: dict[str, int]


def measure_macs(tokens: int, channels: int, windows, seed: int = 0) -> ComplexityReport:
    """Run the toy attention pass on live buffers and tally its MACs.

    One MAC per scalar multiply inside a product, counted from the shapes
    actually executed.  Raises if the measurement disagrees with the
    analytic phase terms (they are equalities, not approximations).
    """
    windows = tuple(int(m) for m in windows)
    if not windows:
        raise ValueError("windows must be non-empty")
    for m in windows:
        if m < 1 or tokens % m != 0:
            raise AdmissibilityError(f"window scale {m} does not divide token count {tokens}")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(tokens, channels))
    wq, wk, wv, wz = (rng.normal(size=(channels, channels)) for _ in range(4))

    counters = {phase: tc.MacCounter() for phase in PHASES}
    with counters["qkv"].active():
        q, k, v = tc.matmul(x, wq), tc.matmul(x, wk), tc.matmul(x, wv)
    merged = np.zeros((tokens, channels))
    for m in windows:
        qw, kw, vw = (t.reshape(tokens // m, m, channels) for t in (q, k, v))
        with counters["qk"].active():
            scores = tc.matmul(qw, kw.transpose(0, 2, 1))
        with counters["av"].active():
            merged += tc.matmul(scores, vw).reshape(tokens, channels)
    with counters["out"].active():
        tc.matmul(merged / len(windows), wz)

    analytic = analytic_phases(tokens, channels, windows)
    measured = {phase: counter.total for phase, counter in counters.items()}
    if measured != analytic:
        raise DimensionError(
            f"MAC accounting out of step: measured {measured} vs analytic {analytic}"
        )
    return ComplexityReport(
        tokens=tokens,
        channels=channels,
        windows=windows,
        omega_msa=omega_msa(tokens, channels),
        omega_mswsa=omega_mswsa(tokens, channels, windows),
        measured=measured,
        analytic=analytic,
    )


def sweep(lengths, channels: int, windows) -> list[tuple[int, int, int, float]]:
    """Rows (L, MAC_global, MAC_windowed, ratio) over a range of lengths."""
    rows = []
    for length in lengths:
        msa = omega_msa(int(length), channels)
        mswsa = omega_mswsa(int(length), channels, windows)
        rows.append((int(length), msa, mswsa, msa / mswsa))
    return rows


def format_sweep_csv(rows, channels: int, windows, unit: str = "samples") -> str:
    buf = io.StringIO()
    buf.write(f"# channels = {channels}\n")
    buf.write(f"# windows = {list(windows)}\n")
    buf.write(f"# length_unit = {unit}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["L", "omega_msa", "omega_mswsa", "ratio"])
    for length, msa, mswsa, ratio in rows:
        writer.writerow([length, msa, mswsa, repr(ratio)])
    return buf.getvalue()


def write_sweep_csv(rows, path, channels: int, windows, unit: str = "samples") -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(format_sweep_csv(rows, channels, windows, unit))
