import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

from mswecg import data
from mswecg.cli import main
from mswecg.config import MswConfig
from mswecg.data import (
    SIGMA_FLOOR,
    SPLIT_FOLDS,
    Dataset,
    DatasetHeader,
    SynthSpec,
    fold_masks,
    lead_statistics,
    load_dataset,
    read_header,
    save_dataset,
    standardize,
    synth_generate,
)
from mswecg.errors import DataError
from mswecg.model import predict
from mswecg.params import init_params, save_checkpoint
from mswecg.train import TrainConfig, format_metric_log, train_loop
from util import pairwise_auc


REPO = Path(__file__).resolve().parent.parent


def small_dataset(n=10, n_leads=2, L=6, K=2, seed=0):
    rng = np.random.default_rng(seed)
    header = DatasetHeader(n_leads=n_leads, L=L, K=K, class_names=("A", "B")[:K])
    return Dataset(
        header=header,
        ids=tuple(f"r{i:03d}" for i in range(n)),
        signals=rng.normal(size=(n, n_leads, L)),
        labels=(rng.random((n, K)) < 0.5).astype(np.int64),
        folds=np.arange(n) % 10 + 1,
    )


def constant_dataset(folds, n_leads=1, L=4, value=0.0):
    n = len(folds)
    return Dataset(
        header=DatasetHeader(n_leads=n_leads, L=L, K=1, class_names=("A",)),
        ids=tuple(f"r{i}" for i in range(n)),
        signals=np.full((n, n_leads, L), value),
        labels=np.zeros((n, 1), dtype=np.int64),
        folds=np.asarray(folds, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# file round trip


def test_save_load_round_trip(tmp_path):
    ds = small_dataset(12)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    back = load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")
    assert back.header == ds.header
    assert len(back) == len(ds)
    assert back.ids == ds.ids
    assert np.array_equal(back.folds, ds.folds)
    assert np.array_equal(back.signals, ds.signals)
    assert np.array_equal(back.labels, ds.labels)


def test_load_maps_the_blob_read_only(tmp_path):
    ds = small_dataset(5)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    back = load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")
    assert isinstance(back.signals, np.memmap)
    assert not back.signals.flags.writeable
    assert back.labels.dtype == np.int64 and back.folds.dtype == np.int64


def test_read_header_returns_geometry_and_blob_offset(tmp_path):
    ds = small_dataset(3, n_leads=2, L=6)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    header, offset = read_header(tmp_path / "sig.bin")
    assert (header.n_leads, header.L, header.K, header.sample_rate) == (2, 6, 2, 100)
    assert offset == len("2 6 2 100\n")
    (tmp_path / "bad.bin").write_bytes(b"2 6 x 100\n")
    with pytest.raises(DataError, match="non-integer header field"):
        read_header(tmp_path / "bad.bin")
    (tmp_path / "bad.bin").write_bytes(b"0 6 2 100\n")
    with pytest.raises(DataError, match="n_leads >= 1"):
        read_header(tmp_path / "bad.bin")
    with pytest.raises(DataError, match="not found"):
        read_header(tmp_path / "missing.bin")


def test_load_rejects_bad_label_rows_with_coordinates(tmp_path):
    ds = small_dataset(4)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    good = (tmp_path / "lab.csv").read_text().splitlines()
    cases = {
        "r002,3,1": r"lab\.csv row 2: expected 4 fields, got 3",
        "r002,3,x,0": r"lab\.csv row 2: non-integer fold/label field",
        "r002,3,2,0": r"record r002 \(row 2\): labels must be a 2-long 0/1 row",
        "r002,11,1,0": r"record r002 \(row 2\): fold 11 outside 1\.\.10",
    }
    for bad_row, message in cases.items():
        (tmp_path / "lab.csv").write_text("\n".join(good[:3] + [bad_row] + good[4:]) + "\n")
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")


def test_load_rejects_duplicate_id(tmp_path):
    ds = small_dataset(3)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    text = (tmp_path / "lab.csv").read_text().replace("r001", "r000")
    (tmp_path / "lab.csv").write_text(text)
    with pytest.raises(DataError, match="row 1: duplicate id 'r000'"):
        load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")


def test_load_rejects_nonfinite_sample(tmp_path):
    ds = small_dataset(3)
    ds.signals[1, 0, 0] = np.nan
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    loaded = load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")  # reads no sample
    with pytest.raises(DataError, match=r"record r001 \(row 1\): non-finite sample"):
        standardize(loaded)


def test_load_rejects_truncated_blob(tmp_path):
    ds = small_dataset(3)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    raw = (tmp_path / "sig.bin").read_bytes()
    (tmp_path / "sig.bin").write_bytes(raw[:-8])
    with pytest.raises(DataError, match="bytes"):
        load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")


def test_signal_file_size_is_header_plus_blob(tmp_path):
    ds = small_dataset(7, n_leads=3, L=5)
    sig = tmp_path / "sig.bin"
    save_dataset(ds, sig, tmp_path / "lab.csv")
    header_len = len("3 5 2 100\n")
    assert sig.stat().st_size == header_len + 7 * 3 * 5 * 8


# ---------------------------------------------------------------------------
# folds and standardization


def test_fold_split_partition():
    ds = small_dataset(10)
    train, val, test = fold_masks(ds)
    assert (train.sum(), val.sum(), test.sum()) == (8, 1, 1)
    assert np.array_equal(np.flatnonzero(test), np.flatnonzero(ds.folds == 10))
    assert np.array_equal(np.flatnonzero(val), np.flatnonzero(ds.folds == 9))


def test_fold_split_empty_val_warns():
    ds = small_dataset(8)  # folds 1..8 only
    with pytest.warns(UserWarning, match="validation fold"):
        train, val, test = fold_masks(ds)
    assert not val.any() and not test.any() and train.all()


def test_fold_split_rejects_bad_fold():
    broken = constant_dataset([1, 2, 11])
    with pytest.raises(DataError, match="record r2: fold 11"):
        fold_masks(broken)


@settings(max_examples=30, deadline=None)
@given(folds=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=40))
def test_fold_split_disjoint_and_covering(folds):
    import warnings

    ds = constant_dataset(folds, L=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train, val, test = fold_masks(ds)
    assert np.array_equal(train.astype(int) + val + test, np.ones(len(ds), dtype=int))
    assert (ds.folds[train] <= 8).all()
    assert (ds.folds[val] == 9).all()
    assert (ds.folds[test] == 10).all()


def test_standardize_train_statistics():
    ds = small_dataset(40, seed=3)
    train = standardize(ds)[np.flatnonzero(ds.folds <= 8)]
    assert np.abs(train.mean(axis=(0, 2))).max() < 1e-9
    assert np.abs(train.std(axis=(0, 2)) - 1.0).max() < 1e-9


def test_standardize_does_not_leak_test_folds():
    ds = small_dataset(60, seed=4)
    held = standardize(ds)[np.flatnonzero(ds.folds > 8)]
    # Held-out statistics must come out shifted, not exactly 0/1.
    assert np.abs(held.mean(axis=(0, 2))).max() > 1e-9
    assert np.abs(held.std(axis=(0, 2)) - 1.0).max() > 1e-9


def test_standardize_constant_lead_maps_to_zero():
    view = standardize(constant_dataset(range(1, 11), value=2.5))
    assert np.array_equal(view[np.arange(10)], np.zeros((10, 1, 4)))


def test_standardize_requires_training_folds():
    with pytest.raises(DataError, match="training folds"):
        standardize(constant_dataset([9], value=1.0))


def test_standardize_copies_a_mapped_dataset(tmp_path):
    ds = small_dataset(20, seed=6)
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    mapped = standardize(load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv"))
    in_memory = standardize(ds)
    mean, std = lead_statistics(ds)
    assert len(mapped) == 20
    # Unsorted, repeated and consecutive rows, a single row and no rows.
    for rows in ([5, 3, 4, 19, 0, 3, 6, 7], np.arange(20), 7, np.array([], dtype=int)):
        got = mapped[rows]
        assert type(got) is np.ndarray and got.flags.writeable
        assert got.tobytes() == in_memory[rows].tobytes()
        want = ds.signals[rows].copy()
        want -= mean[:, None]
        want /= std[:, None]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    batch = mapped[[2, 1]]
    batch[:] = 0.0  # a fresh copy: the next read is unchanged
    assert mapped[[2, 1]].tobytes() == in_memory[[2, 1]].tobytes()


@pytest.mark.parametrize("n_leads,L", [(4, 200), (12, 1000)])
def test_streamed_lead_statistics_equal_numpy_bitwise(n_leads, L):
    ds = synth_generate(SynthSpec(seed=8, n_records=50, n_leads=n_leads, L=L))
    train = ds.signals[np.isin(ds.folds, SPLIT_FOLDS["train"])]
    with mock.patch.object(data, "BLOCK_BYTES", 7 * n_leads * L * 8):  # blocks of 7 rows
        mean, std = lead_statistics(ds)
    assert mean.tobytes() == train.mean(axis=(0, 2)).tobytes()
    assert std.tobytes() == np.maximum(train.std(axis=(0, 2)), SIGMA_FLOOR).tobytes()


@pytest.fixture(scope="module")
def mapped_12x1000(tmp_path_factory):
    out = tmp_path_factory.mktemp("mapped")
    save_dataset(synth_generate(SynthSpec(seed=2, n_records=200, n_leads=12, L=1000)),
                 out / "sig.bin", out / "lab.csv")
    return out / "sig.bin", out / "lab.csv"


def test_set_up_reads_every_row_once_and_the_training_rows_twice(mapped_12x1000, monkeypatch):
    sig, lab = mapped_12x1000
    preadv, read = data.os.preadv, []

    def counting_preadv(*args):
        read.append(preadv(*args))
        return read[-1]

    monkeypatch.setattr(data.os, "preadv", counting_preadv)
    ds = load_dataset(sig, lab)
    standardize(ds)
    n_train = int(np.isin(ds.folds, SPLIT_FOLDS["train"]).sum())
    assert (len(ds), n_train) == (200, 160)
    assert sum(read) == (len(ds) + n_train) * 12 * 1000 * 8


def test_load_dataset_reads_no_sample(mapped_12x1000, monkeypatch):
    monkeypatch.setattr(data.os, "preadv", lambda *a: pytest.fail("a sample was read"))
    ds = load_dataset(*mapped_12x1000)
    assert len(ds) == 200 and ds.header.n_leads == 12


def test_set_up_holds_one_block_whatever_the_record_count(tmp_path):
    peaks = {}
    for n in (20, 200):
        sig, lab = tmp_path / f"sig{n}.bin", tmp_path / f"lab{n}.csv"
        save_dataset(synth_generate(SynthSpec(seed=2, n_records=n, n_leads=12, L=1000)), sig, lab)
        tracemalloc.start()
        try:
            standardize(load_dataset(sig, lab))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[n] < 1.5 * data.BLOCK_BYTES, peaks
    assert peaks[200] - peaks[20] < data.BLOCK_BYTES / 8, peaks


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_standardize_names_a_non_finite_row_of_an_in_memory_set_as_of_a_mapped_one(tmp_path,
                                                                                  value):
    ds = small_dataset(30, seed=9)
    ds.signals[17, 1, 4] = value
    ds.signals[23, 0, 0] = value
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    mapped = load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")
    with mock.patch.object(data, "BLOCK_BYTES", 4 * ds.signals[0].nbytes):
        for either in (ds, mapped):
            with pytest.raises(DataError, match=r"record r017 \(row 17\): non-finite sample"):
                standardize(either)


def test_a_row_whose_sum_overflows_is_finite(tmp_path):
    ds = small_dataset(10, seed=9)
    ds.signals[3] = 1e308  # every sample finite, the row's sums are not
    assert np.isfinite(ds.signals).all()
    save_dataset(ds, tmp_path / "sig.bin", tmp_path / "lab.csv")
    mapped = load_dataset(tmp_path / "sig.bin", tmp_path / "lab.csv")
    with np.errstate(over="ignore"):
        assert not np.isfinite(ds.signals[3].sum(axis=1)).any()
        # set-up rejects the row, rather than let training fail on it
        for either in (ds, mapped):
            with pytest.raises(DataError,
                               match=r"record r003 \(row 3\): a lead's samples sum past"):
                standardize(either)


@pytest.mark.parametrize("after", [3, 19], ids=["mid-file", "trailing"])
def test_a_blank_label_row_is_named_in_the_label_file(tmp_path, after):
    sig, lab = tmp_path / "signals.bin", tmp_path / "labels.csv"
    save_dataset(synth_generate(SynthSpec(seed=0, n_records=20, n_leads=2, L=40)), sig, lab)
    lines = lab.read_text().splitlines(keepends=True)
    lines.insert(after + 2, "\n")  # after the header and data rows 0..after
    lab.write_text("".join(lines))
    with pytest.raises(DataError, match=rf"labels\.csv row {after + 1}: empty row") as err:
        load_dataset(sig, lab)
    assert "signals.bin" not in str(err.value)


def test_a_batch_read_holds_only_its_rows(mapped_12x1000, monkeypatch):
    sig, lab = mapped_12x1000
    row_bytes = 12 * 1000 * 8
    # Blocks of five records, so the bound below reads: the batch plus a
    # few blocks, not anything proportional to the 200-record set.
    monkeypatch.setattr(data, "BLOCK_BYTES", 5 * row_bytes)
    rows = np.random.default_rng(0).permutation(200)[:16]
    tracemalloc.start()
    try:
        view = standardize(load_dataset(sig, lab))
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        batch = view[rows]
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert whole < 4 * 5 * row_bytes, f"load and standardize peaked at {whole} bytes"
    # The batch and the reader's file buffer, not one extra row.
    assert batch.nbytes <= read < batch.nbytes + row_bytes, f"{read} bytes for the batch"
    in_memory = synth_generate(SynthSpec(seed=2, n_records=200, n_leads=12, L=1000))
    assert batch.tobytes() == standardize(in_memory)[rows].tobytes()


def test_load_and_standardize_read_blocks_instead_of_indexing_the_map(mapped_12x1000, tmp_path):
    sig, lab = mapped_12x1000
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=8, heads=2, windows=(5, 10, 20), K=3)
    params = init_params(cfg, seed=0)
    save_checkpoint(params, tmp_path / "ckpt", config={"model": cfg.to_dict()})
    in_memory = synth_generate(SynthSpec(seed=2, n_records=200, n_leads=12, L=1000))
    val = np.flatnonzero(in_memory.folds == 9)
    with mock.patch.object(np.memmap, "__getitem__", side_effect=AssertionError("map indexed")):
        ds = load_dataset(sig, lab)
        view = standardize(ds)
        batch = view[val[::-1]]
        probs = predict(view, cfg, params, rows=val)
        result = train_loop(cfg, params.copy(), ds, TrainConfig(max_epochs=1, batch_size=32))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["attn", "--checkpoint", str(tmp_path / "ckpt"), "--signals", str(sig),
                         "--labels", str(lab), "--record", "synth-00009",
                         "--out-dir", str(tmp_path / "viz")])
    assert code == 0 and (tmp_path / "viz" / "synth-00009.json").exists()
    want = standardize(in_memory)
    assert batch.tobytes() == want[val[::-1]].tobytes()
    assert probs.tobytes() == predict(want, cfg, params, rows=val).tobytes()
    again = train_loop(cfg, params.copy(), in_memory, TrainConfig(max_epochs=1, batch_size=32))
    assert format_metric_log(result.log) == format_metric_log(again.log)


def test_row_outside_the_set_is_an_index_error(mapped_12x1000):
    view = standardize(load_dataset(*mapped_12x1000))
    for rows in (-1, 200, [3, -1], [0, 200]):
        with pytest.raises(IndexError, match=r"outside 0\.\.199"):
            view[rows]
    with pytest.raises(IndexError, match="integers"):
        view[np.ones(200, dtype=bool)]


def test_short_read_names_the_file_and_the_row(tmp_path):
    ds = small_dataset(20, seed=6)
    sig = tmp_path / "sig.bin"
    save_dataset(ds, sig, tmp_path / "lab.csv")
    view = standardize(load_dataset(sig, tmp_path / "lab.csv"))
    with open(sig, "r+b") as fh:  # cut row 17 short after loading
        fh.truncate(sig.stat().st_size - 3 * 2 * 6 * 8 + 5)
    assert view[[16, 3]].tobytes() == standardize(ds)[[16, 3]].tobytes()
    for rows, first_missing in (([17], 17), ([19, 16, 17, 18], 17), (18, 18)):
        with pytest.raises(DataError, match=rf"sig\.bin: blob ends inside row {first_missing}"):
            view[rows]


def test_dataset_rejects_columns_of_different_lengths():
    ds = small_dataset(4)
    with pytest.raises(DataError, match="columns disagree"):
        Dataset(header=ds.header, ids=ds.ids[:3], signals=ds.signals, labels=ds.labels,
                folds=ds.folds)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic():
    a = synth_generate(SynthSpec(seed=5, n_records=20))
    b = synth_generate(SynthSpec(seed=5, n_records=20))
    assert a.signals.tobytes() == b.signals.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synth_no_motifs_no_noise_is_constant_baseline():
    spec = SynthSpec(seed=0, n_records=6, noise_std=0.0, marginals=(0.0, 0.0, 0.0))
    ds = synth_generate(spec)
    base = ds.signals[0]
    for signal in ds.signals[1:]:
        assert np.array_equal(signal, base)
    assert not np.array_equal(base, np.zeros_like(base))


def test_synth_round_robin_folds():
    ds = synth_generate(SynthSpec(seed=1, n_records=30))
    folds = ds.folds.tolist()
    assert folds[:10] == list(range(1, 11))
    assert all(folds[i] == (i % 10) + 1 for i in range(30))


def test_synth_rejects_bad_spec():
    with pytest.raises(DataError):
        synth_generate(SynthSpec(n_records=0))
    with pytest.raises(DataError):
        synth_generate(SynthSpec(amp_leads=(9,)))


def test_synth_motifs_detectable_by_matched_filters():
    spec = SynthSpec(seed=7, n_records=200)
    ds = synth_generate(spec)
    labels = ds.labels
    t = np.arange(spec.L)

    def unit_template(width):
        tmpl = np.exp(-0.5 * ((t - spec.L / 2) / width) ** 2)
        return tmpl / np.linalg.norm(tmpl)

    wide = unit_template(spec.pulse_width * spec.wide_factor)
    narrow = unit_template(spec.pulse_width)
    others = [j for j in range(spec.n_leads) if j not in spec.amp_leads]
    stats = {0: [], 1: [], 2: []}
    lag_lo = int(spec.interval * 0.7)
    lag_hi = int(spec.interval * spec.interval_factor * 1.3)
    for signal in ds.signals:
        xbar = signal.mean(axis=0)
        stats[0].append(
            np.correlate(xbar, wide, mode="same").max()
            / np.correlate(xbar, narrow, mode="same").max()
        )
        rms_des = np.sqrt((signal[list(spec.amp_leads)] ** 2).mean())
        rms_oth = np.sqrt((signal[others] ** 2).mean())
        stats[1].append(rms_des / rms_oth)
        xc = xbar - xbar.mean()
        ac = np.correlate(xc, xc, mode="full")[len(xc) - 1 :]
        stats[2].append(lag_lo + int(np.argmax(ac[lag_lo:lag_hi])))
    for k in range(3):
        auc = pairwise_auc(np.array(stats[k]), labels[:, k])
        assert auc > 0.95, f"class {k}: matched-filter AUC {auc}"


# ---------------------------------------------------------------------------
# on-disk format


@pytest.mark.parametrize("workload,n_leads,L", [("train_desk", 4, 200), ("eval_ptbxl", 12, 1000)])
def test_file_format_matches_benchmark_reference_hashes(tmp_path, workload, n_leads, L):
    reference = json.loads((REPO / "perfbench" / "inputs.sha256.json").read_text())
    spec = SynthSpec(seed=reference["reference_seed"], n_records=reference["canary_records"],
                     n_leads=n_leads, L=L)
    sig, lab = tmp_path / "signals.bin", tmp_path / "labels.csv"
    save_dataset(synth_generate(spec), sig, lab)
    want = reference["workloads"][workload]
    assert hashlib.sha256(sig.read_bytes()).hexdigest() == want["signals.bin"]
    assert hashlib.sha256(lab.read_bytes()).hexdigest() == want["labels.csv"]

    again = tmp_path / "again"
    save_dataset(load_dataset(sig, lab), again / "signals.bin", again / "labels.csv")
    assert (again / "signals.bin").read_bytes() == sig.read_bytes()
    assert (again / "labels.csv").read_bytes() == lab.read_bytes()


# ---------------------------------------------------------------------------
# loader fuzz: every malformed blob fails with DataError, and eval exits 3

FUZZ_CFG = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)
ROW_BYTES = FUZZ_CFG.n_leads * FUZZ_CFG.L * 8


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzzckpt") / "checkpoint"
    save_checkpoint(init_params(FUZZ_CFG, seed=0), base, config={"model": FUZZ_CFG.to_dict()})
    return base


def _write_fuzz_set(out: Path, n_records: int) -> tuple[Path, Path]:
    spec = SynthSpec(seed=n_records, n_records=n_records, n_leads=FUZZ_CFG.n_leads, L=FUZZ_CFG.L)
    save_dataset(synth_generate(spec), out / "sig.bin", out / "lab.csv")
    return out / "sig.bin", out / "lab.csv"


def _load_and_eval(sig, lab, checkpoint, set_up=load_dataset) -> str:
    """The DataError message of ``set_up(sig, lab)``; eval must exit 3 with it."""
    with pytest.raises(DataError) as caught:
        set_up(sig, lab)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(checkpoint), "--signals", str(sig),
                     "--labels", str(lab), "--split", "val"])
    assert code == 3
    assert err.getvalue() == f"eval: data error: {caught.value}\n"
    return str(caught.value)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fuzz_non_finite_sample_names_its_row(fuzz_checkpoint, draw):
    n = draw.draw(st.integers(1, 12), label="records")
    block_rows = draw.draw(st.integers(1, 4), label="rows per block")
    # Favour the first and last row of a block and the last record.
    edges = sorted({0, n - 1} | {r for b in range(0, n, block_rows) for r in (b, b + block_rows - 1)
                                 if r < n})
    row = draw.draw(st.sampled_from(edges) | st.integers(0, n - 1), label="row")
    lead = draw.draw(st.integers(0, FUZZ_CFG.n_leads - 1), label="lead")
    sample = draw.draw(st.integers(0, FUZZ_CFG.L - 1), label="sample")
    value = draw.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "BLOCK_BYTES", block_rows * ROW_BYTES):
        sig, lab = _write_fuzz_set(Path(tmp), n)
        raw = bytearray(sig.read_bytes())
        at = read_header(sig)[1] + row * ROW_BYTES + (lead * FUZZ_CFG.L + sample) * 8
        raw[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        sig.write_bytes(bytes(raw))
        load_dataset(sig, lab)  # reads no sample: standardize rejects the row
        message = _load_and_eval(sig, lab, fuzz_checkpoint,
                                 set_up=lambda *files: standardize(load_dataset(*files)))
    assert f"record synth-{row:05d} (row {row}): non-finite sample" in message


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), delta=st.integers(-8 * ROW_BYTES, 3 * ROW_BYTES).filter(bool))
def test_fuzz_truncated_or_over_long_blob_names_the_row(fuzz_checkpoint, n, delta):
    with tempfile.TemporaryDirectory() as tmp:
        sig, lab = _write_fuzz_set(Path(tmp), n)
        raw = sig.read_bytes()
        offset = read_header(sig)[1]
        blob = max(0, len(raw) - offset + delta)
        sig.write_bytes(raw[: offset + blob] + b"\0" * max(0, delta))
        message = _load_and_eval(sig, lab, fuzz_checkpoint)
    if delta < 0:
        assert f"row {blob // ROW_BYTES} is cut short" in message
    else:
        assert f"{delta} bytes follow the last row ({n - 1})" in message


@settings(max_examples=40, deadline=None)
@given(
    field=st.integers(0, 2),
    token=st.one_of(st.integers(-5, 10**20).map(str), st.sampled_from(["x", "1.5", "", "2 2"])),
)
def test_fuzz_bad_header_field_is_a_data_error(fuzz_checkpoint, field, token):
    with tempfile.TemporaryDirectory() as tmp:
        sig, lab = _write_fuzz_set(Path(tmp), 3)
        raw = sig.read_bytes()
        offset = read_header(sig)[1]
        fields = raw[:offset].decode("ascii").split()
        if token == fields[field]:
            return  # unchanged header
        fields[field] = token
        sig.write_bytes(" ".join(fields).encode("ascii") + b"\n" + raw[offset:])
        _load_and_eval(sig, lab, fuzz_checkpoint)
