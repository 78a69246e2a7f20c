import numpy as np
import pytest

from mswecg.complexity import (
    analytic_phases,
    format_sweep_csv,
    measure_macs,
    omega_msa,
    omega_mswsa,
    sweep,
)
from mswecg.errors import AdmissibilityError


def test_omega_msa_values():
    assert omega_msa(1000, 12) == 24_576_000
    assert omega_msa(0, 7) == 0
    assert omega_msa(1, 1) == 6


def test_omega_mswsa_values():
    assert omega_mswsa(1000, 12, (5, 10, 20)) == 1_416_000
    assert omega_mswsa(0, 4, (2,)) == 0
    # one window spanning everything collapses to the global count
    assert omega_mswsa(64, 8, (64,)) == omega_msa(64, 8)


def test_omega_mswsa_requires_windows():
    with pytest.raises(ValueError):
        omega_mswsa(10, 2, ())


def test_measured_total_example():
    report = measure_macs(8, 4, (2,))
    assert sum(report.measured.values()) == 640
    assert sum(report.measured.values()) == omega_mswsa(8, 4, (2,))
    assert report.measured == report.analytic


def test_measured_equals_msa_when_window_spans_all():
    report = measure_macs(8, 4, (8,))
    assert sum(report.measured.values()) == omega_msa(8, 4)


def test_measured_phase_by_phase_equality_many_configs():
    cases = [
        (8, 4, (2,)),
        (8, 4, (8,)),
        (12, 6, (2, 3)),
        (24, 8, (2, 4, 6)),
        (40, 16, (5, 10, 20)),
        (16, 2, (1, 2, 4, 8)),
    ]
    for tokens, channels, windows in cases:
        report = measure_macs(tokens, channels, windows)
        assert report.measured == analytic_phases(tokens, channels, windows), (tokens, windows)
        assert sum(report.measured.values()) == omega_mswsa(tokens, channels, windows)


def test_measured_projection_phases_scale_quadratically_in_width():
    small = measure_macs(8, 4, (2,))
    large = measure_macs(8, 8, (2,))
    proj_small = small.measured["qkv"] + small.measured["out"]
    proj_large = large.measured["qkv"] + large.measured["out"]
    assert proj_large == 4 * proj_small


def test_measure_rejects_inadmissible_windows():
    with pytest.raises(AdmissibilityError):
        measure_macs(8, 4, (3,))


def test_windowed_never_costs_more_when_windows_fit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 500))
        channels = int(rng.integers(1, 64))
        n_windows = int(rng.integers(1, 4))
        windows = tuple(int(m) for m in rng.integers(1, max(length // n_windows, 2),
                                                     size=n_windows))
        if sum(windows) <= length:
            assert omega_mswsa(length, channels, windows) <= omega_msa(length, channels)


def test_sweep_ratio_and_monotonicity():
    rows = sweep(range(1000, 5001, 1000), 12, (5, 10, 20))
    first = rows[0]
    assert first[:3] == (1000, 24_576_000, 1_416_000)
    assert first[3] == pytest.approx(17.36, abs=0.01)
    msa_col = [r[1] for r in rows]
    msw_col = [r[2] for r in rows]
    ratio_col = [r[3] for r in rows]
    assert msa_col == sorted(msa_col) and msw_col == sorted(msw_col)
    assert all(b > a for a, b in zip(ratio_col, ratio_col[1:]))


def test_sweep_coincides_when_single_window_spans_length():
    (row,) = sweep([35], 4, (35,))
    assert row[1] == row[2] and row[3] == 1.0


def test_sweep_csv_format():
    rows = sweep([1000], 12, (5, 10, 20))
    text = format_sweep_csv(rows, 12, (5, 10, 20), unit="samples")
    lines = text.splitlines()
    assert lines[0] == "# channels = 12"
    assert lines[2] == "# length_unit = samples"
    assert lines[3] == "L,omega_msa,omega_mswsa,ratio"
    assert lines[4].startswith("1000,24576000,1416000,")


def test_report_ratio_property():
    report = measure_macs(40, 16, (5, 10, 20))
    (row,) = sweep([40], 16, (5, 10, 20))
    assert report.omega_msa / report.omega_mswsa == pytest.approx(row[3])
