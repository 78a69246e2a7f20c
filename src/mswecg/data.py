"""Dataset representation, file I/O, standardization, folds, synthetic data.

A :class:`Dataset` is columnar: one ``(N, n_leads, L)`` float64 signal
array, one ``(N, K)`` int64 multi-hot label matrix, one ``(N,)`` fold
vector and a tuple of record ids, all in file row order.  Loading maps the
signal blob read-only instead of copying it.  :func:`standardize` returns a
:class:`StandardizedRows` view: indexing it reads just the requested rows
and scales them by the training folds' :func:`lead_statistics`, so a command
holds the rows it is working on (a batch, a ``predict`` chunk, one record)
and never a copy of a split.

The mapped blob is never read through the map.  Touching rows of a map
makes their pages, and the kernel's read-around of them, resident in this
process: selecting every tenth 96 KB record of a 96 MB blob that way made
nearly all of it resident.  Rows are read with positioned reads instead, in
file order (:func:`_read_rows`).  :func:`load_dataset` reads the label file
once and no sample; :func:`lead_statistics` is the only set-up code that
reads samples: every row once, in blocks of ``BLOCK_BYTES``, to check and
sum them, and the training rows once more for the deviations, so a command
holds one block and the rows it uses, whatever the size of the set.

On-disk format, chosen to be trivially writable from any conversion script:

* signal file — one ASCII header line ``n_leads L K sample_rate`` followed by
  raw little-endian float64 samples, record-major then lead-major, in the
  row order of the label file;
* label file — CSV with header ``id,fold,<class names...>`` and one 0/1
  multi-hot row per record.
"""

from __future__ import annotations

import csv
import io
import mmap
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

SIGMA_FLOOR = 1e-8
SPLIT_FOLDS = {"train": range(1, 9), "val": (9,), "test": (10,)}
BLOCK_BYTES = 1 << 20  # rows read at once by set-up's passes over a set


@dataclass(frozen=True)
class DatasetHeader:
    n_leads: int
    L: int
    K: int
    class_names: tuple[str, ...]
    sample_rate: int = 100


@dataclass(frozen=True, eq=False)
class Dataset:
    """N records as columns, in file row order.

    ``signals`` is (N, n_leads, L) float64 (a read-only memory map straight
    after :func:`load_dataset`), ``labels`` (N, K) int64 multi-hot rows,
    ``folds`` (N,) int64 in 1..10 and ``ids`` the N record ids.
    """

    header: DatasetHeader
    ids: tuple[str, ...]
    signals: np.ndarray
    labels: np.ndarray
    folds: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        h = self.header
        if (self.signals.shape != (n, h.n_leads, h.L) or self.labels.shape != (n, h.K)
                or self.folds.shape != (n,)):
            raise DataError(
                f"dataset columns disagree: {n} ids, signals {self.signals.shape}, labels "
                f"{self.labels.shape}, folds {self.folds.shape} for header "
                f"({h.n_leads}, {h.L}, {h.K})"
            )

    def __len__(self):
        return len(self.ids)


def read_header(signal_file) -> tuple[DatasetHeader, int]:
    """Parse the signal file's header line, reading nothing else.

    Returns the header (without class names, which live in the label file)
    and the byte offset at which the sample blob starts.
    """
    path = Path(signal_file)
    if not path.exists():
        raise DataError(f"signal file not found: {path}")
    with open(path, "rb") as fh:
        line = fh.readline()
    text = line.decode("ascii", errors="replace").strip()
    parts = text.split()
    if len(parts) != 4:
        raise DataError(f"{path}: header line must be 'n_leads L K sample_rate'")
    try:
        n_leads, L, K, rate = (int(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"{path}: non-integer header field: {text!r}") from exc
    if n_leads < 1 or L < 1 or K < 0:
        raise DataError(f"{path}: header needs n_leads >= 1, L >= 1 and K >= 0")
    if n_leads * L * 8 > np.iinfo(np.intp).max:
        raise DataError(f"{path}: a record of {n_leads}x{L} float64 does not fit in memory")
    return DatasetHeader(n_leads=n_leads, L=L, K=K, class_names=(), sample_rate=rate), len(line)


def _first(bad: np.ndarray) -> int | None:
    """Index of the first true entry, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _read_rows(signals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A fresh array of ``signals[rows]`` for a 1-D integer array ``rows``.

    The whole-blob map of :func:`load_dataset` is read, never indexed, with
    one positioned read (``os.preadv``) per run of rows consecutive both in
    the file and in ``rows``, in file order, on an unbuffered descriptor.
    Positioned reads share no file offset, so threads may read one map at
    once.  Any other array is indexed.  A row outside ``0..N-1`` raises
    :class:`IndexError` (row -1 would read header bytes).
    """
    r, n = rows.tolist(), len(signals)  # Python ints: a batch is a few dozen rows
    if r and (min(r) < 0 or max(r) >= n):
        raise IndexError(f"row {next(x for x in r if not 0 <= x < n)} outside 0..{n - 1}")
    if not (isinstance(signals, np.memmap) and isinstance(signals.base, mmap.mmap)):
        return signals[rows]
    out = np.empty((len(r), *signals.shape[1:]), dtype=signals.dtype)
    runs = []  # [position in rows, file row, row count], in file order
    for i in sorted(range(len(r)), key=r.__getitem__):
        if runs and i == runs[-1][0] + runs[-1][2] and r[i] == runs[-1][1] + runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([i, r[i], 1])
    row_bytes = signals.strides[0]  # the map is C-contiguous
    buf = memoryview(out.reshape(-1).view(np.uint8))
    fd = os.open(signals.filename, os.O_RDONLY)
    try:
        for i, row, count in runs:
            at, size, got = i * row_bytes, count * row_bytes, 0
            while got < size:  # a read stops short only at the end of the file (or 2 GB)
                step = os.preadv(fd, [buf[at + got : at + size]],
                                 signals.offset + row * row_bytes + got)
                if not step:
                    raise DataError(f"{signals.filename}: blob ends inside row "
                                    f"{row + got // row_bytes}")
                got += step
    finally:
        os.close(fd)
    return out


def _row_blocks(signals: np.ndarray, rows: np.ndarray):
    """Yield ``(block rows, signals[block rows])`` over ``rows``, about BLOCK_BYTES at a time."""
    row_bytes = max(1, int(np.prod(signals.shape[1:])) * signals.dtype.itemsize)
    step = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, len(rows), step):
        block_rows = rows[start : start + step]
        yield block_rows, _read_rows(signals, block_rows)


def load_dataset(signal_file, label_file) -> Dataset:
    """Map a dataset's files once they agree with each other; reads no sample.

    One pass over the label file parses every row into one int64 array,
    sized from the blob: the rows the blob can hold.  The label columns must
    match the signal header's K and the blob must hold exactly one row of
    samples per record; then the blob is memory-mapped read-only, not
    copied.  Malformed rows are rejected with their index, in the order a
    blank row, the label columns, the blob size, the first row that does not
    parse, labels outside 0/1, folds outside 1..10.  Samples are checked by
    :func:`lead_statistics`.
    """
    signal_file, label_file = Path(signal_file), Path(label_file)
    file_header, offset = read_header(signal_file)
    if not label_file.exists():
        raise DataError(f"label file not found: {label_file}")
    n_leads, L, K = file_header.n_leads, file_header.L, file_header.K
    blob_bytes = signal_file.stat().st_size - offset
    row_bytes = n_leads * L * 8

    ids, fault, n_records = {}, None, 0  # ids in row order (a dict: the duplicate check)
    with open(label_file, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, [])
        if head[:2] != ["id", "fold"]:
            raise DataError(f"{label_file}: first row must be 'id,fold,<class names...>'")
        # The fold and label columns of the rows the blob holds.  The columns
        # are checked against K, and the row count against the blob, once the
        # file is read; a row's fault is raised after both.
        values = np.empty((blob_bytes // row_bytes, len(head) - 1), dtype=np.int64)
        for fields in reader:
            if not fields:  # a blank line: no record, so the blob size check would misfire
                raise DataError(f"{label_file} row {n_records}: empty row")
            row, n_records = n_records, n_records + 1
            if fault or row >= len(values):
                continue
            if len(fields) != len(head):
                fault = f"expected {len(head)} fields, got {len(fields)}"
            elif fields[0] in ids:
                fault = f"duplicate id {fields[0]!r}"
            else:
                ids[fields[0]] = None
                try:
                    values[row] = [int(v) for v in fields[1:]]
                except (ValueError, OverflowError):
                    fault = "non-integer fold/label field"
            if fault:
                fault = f"{label_file} row {row}: {fault}"
    class_names = tuple(head[2:])
    if len(class_names) != K:
        raise DataError(
            f"{label_file}: {len(class_names)} label columns but signal header declares K={K}"
        )
    expected = n_records * row_bytes
    if blob_bytes != expected:
        if blob_bytes < expected:
            where = f"row {blob_bytes // row_bytes} is cut short"
        elif n_records:
            where = f"{blob_bytes - expected} bytes follow the last row ({n_records - 1})"
        else:
            where = "the label file lists no rows"
        raise DataError(
            f"{signal_file}: blob holds {blob_bytes} bytes, expected {expected} "
            f"for {n_records} records of {n_leads}x{L} float64: {where}"
        )
    if fault:
        raise DataError(fault)
    header = DatasetHeader(n_leads=n_leads, L=L, K=K, class_names=class_names,
                           sample_rate=file_header.sample_rate)
    ids, folds, labels = tuple(ids), values[:, 0].copy(), values[:, 1:].copy()

    if n_records:
        signals = np.memmap(signal_file, dtype="<f8", mode="r", offset=offset,
                            shape=(n_records, n_leads, L))
    else:
        signals = np.empty((0, n_leads, L))
    ds = Dataset(header=header, ids=ids, signals=signals, labels=labels, folds=folds)
    row = _first(~np.isin(labels, (0, 1)).all(axis=1))
    if row is not None:
        raise DataError(f"record {ids[row]} (row {row}): labels must be a {K}-long 0/1 row")
    row = _first((folds < 1) | (folds > 10))
    if row is not None:
        raise DataError(f"record {ids[row]} (row {row}): fold {folds[row]} outside 1..10")
    return ds


def save_dataset(ds: Dataset, signal_file, label_file) -> None:
    """Write the two-file format; load(save(ds)) is value-identical."""
    signal_file, label_file = Path(signal_file), Path(label_file)
    signal_file.parent.mkdir(parents=True, exist_ok=True)
    label_file.parent.mkdir(parents=True, exist_ok=True)
    h = ds.header
    with open(signal_file, "wb") as fh:
        fh.write(f"{h.n_leads} {h.L} {h.K} {h.sample_rate}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(ds.signals, dtype="<f8").tobytes())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "fold", *h.class_names])
    for rec_id, fold, labels in zip(ds.ids, ds.folds.tolist(), ds.labels.tolist()):
        writer.writerow([rec_id, fold, *labels])
    label_file.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# Standardization and folds


def fold_masks(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row masks of train (folds 1-8), validation (9) and test (10)."""
    row = _first((ds.folds < 1) | (ds.folds > 10))
    if row is not None:
        raise DataError(f"record {ds.ids[row]}: fold {ds.folds[row]} outside 1..10")
    train, val, test = (np.isin(ds.folds, folds) for folds in SPLIT_FOLDS.values())
    if not val.any():
        warnings.warn("validation fold (9) is empty", stacklevel=3)
    return train, val, test


def lead_statistics(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-lead mean and std (floored at SIGMA_FLOOR) over the training folds.

    The only set-up code that reads samples.  One pass over every row, in
    blocks, rejects the first record whose per-lead sums are not finite (a
    non-finite sample, or finite samples whose sum overflows) and adds the
    training rows' sums for the mean.  One more pass over the training rows
    adds the squared deviations and rejects the first record whose squares
    overflow a sum.  Each adds one sum per record and lead in file row
    order: the sums numpy's ``x[train].mean/std(axis=(0, 2))`` adds, in the
    same order, so the statistics are bitwise equal to it.  Not so at
    n_leads = 1, where numpy merges the two reduced axes into one pairwise
    sum: there the last bit may differ.
    """
    is_train = np.isin(ds.folds, SPLIT_FOLDS["train"])
    mean, squares = np.zeros(ds.header.n_leads), np.zeros(ds.header.n_leads)
    for rows, block in _row_blocks(ds.signals, np.arange(len(ds))):
        sums = block.sum(axis=2)
        row = _first(~np.isfinite(sums).all(axis=1))
        if row is not None:
            what = ("non-finite sample" if not np.isfinite(block[row]).all()
                    else "a lead's samples sum past float64's range")
            raise DataError(f"record {ds.ids[rows[row]]} (row {rows[row]}): {what}")
        for record_sums in sums[is_train[rows]]:
            mean += record_sums
        del block  # one block at a time: freed before the next is read
    train = np.flatnonzero(is_train)
    if not len(train):
        raise DataError("cannot standardize: training folds 1-8 are empty")
    count = len(train) * ds.header.L
    mean /= count
    for rows, block in _row_blocks(ds.signals, train):
        block -= mean[:, None]  # the block is a fresh copy
        block *= block
        sums = block.sum(axis=2)
        row = _first(~np.isfinite(sums).all(axis=1))
        if row is not None:
            raise DataError(f"record {ds.ids[rows[row]]} (row {rows[row]}): a lead's squared "
                            f"deviations sum past float64's range")
        for record_sums in sums:
            squares += record_sums
        del block
    std = np.sqrt(squares / count)
    return mean, np.maximum(std, SIGMA_FLOOR)


@dataclass(frozen=True, eq=False)
class StandardizedRows:
    """Read-only view of a dataset's signals, standardized on demand.

    ``view[rows]`` (an integer row or array of rows) returns a fresh array of
    just those rows, shifted and scaled per lead by ``mean`` and ``std``;
    nothing else of the set is read or held.
    """

    signals: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __len__(self):
        return len(self.signals)

    def __getitem__(self, rows) -> np.ndarray:
        idx = np.asarray(rows)
        if idx.dtype.kind not in "iu" and idx.size:
            raise IndexError(f"rows must be integers, got {idx.dtype}")
        out = _read_rows(self.signals, idx.reshape(-1).astype(np.intp))
        out = out.reshape(*idx.shape, *self.signals.shape[1:])
        out -= self.mean[:, None]
        out /= self.std[:, None]
        return out


def standardize(ds: Dataset) -> StandardizedRows:
    """Shift/scale every lead by statistics pooled over the training folds only.

    Computes :func:`lead_statistics` once and returns a view whose indexed
    rows come out standardized.  Constant leads map to zeros (the scale is
    floored at a small epsilon).
    """
    mean, std = lead_statistics(ds)
    return StandardizedRows(ds.signals, mean, std)


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic pulse-train generator with one injectable motif per class.

    Class 0 widens every pulse, class 1 doubles the amplitude on designated
    leads, class 2 stretches the inter-pulse interval.  Folds are assigned
    round-robin so a multiple of 10 records splits 80/10/10.
    """

    seed: int = 0
    n_records: int = 750
    n_leads: int = 4
    L: int = 200
    sample_rate: int = 100
    base_amp: float = 1.0
    pulse_width: float = 3.0  # gaussian std, in samples
    interval: float = 40.0  # inter-pulse spacing, in samples
    noise_std: float = 0.1
    wide_factor: float = 2.5
    amp_factor: float = 2.0
    amp_leads: tuple[int, ...] = (0, 1)
    interval_factor: float = 1.5
    marginals: tuple[float, ...] = (0.45, 0.45, 0.45)
    class_names: tuple[str, ...] = ("WIDE", "TALL", "SLOW")


def synth_generate(spec: SynthSpec) -> Dataset:
    """Generate the synthetic dataset; bitwise identical for a fixed seed."""
    if spec.n_records < 1:
        raise DataError("n_records must be >= 1")
    if len(spec.class_names) != 3 or len(spec.marginals) != 3:
        raise DataError("the generator defines exactly 3 motif classes")
    if spec.n_leads < 1 or spec.L < 1:
        raise DataError("n_leads and L must be >= 1")
    for lead in spec.amp_leads:
        if not 0 <= lead < spec.n_leads:
            raise DataError(f"designated lead {lead} outside 0..{spec.n_leads - 1}")

    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.L, dtype=np.float64)
    signals = np.empty((spec.n_records, spec.n_leads, spec.L))
    labels = np.empty((spec.n_records, 3), dtype=np.int64)
    for r in range(spec.n_records):
        labels[r] = rng.random(3) < np.asarray(spec.marginals)
        width = spec.pulse_width * (spec.wide_factor if labels[r, 0] else 1.0)
        interval = spec.interval * (spec.interval_factor if labels[r, 2] else 1.0)
        # First pulse sits half an interval in; the baseline (no motifs, no
        # noise) is therefore the same trace for every record.
        centers = np.arange(interval / 2.0, spec.L + 4.0 * width, interval)
        pulse = np.zeros(spec.L)
        for c in centers:
            pulse += np.exp(-0.5 * ((t - c) / width) ** 2)
        amps = np.full(spec.n_leads, spec.base_amp)
        if labels[r, 1]:
            amps[list(spec.amp_leads)] *= spec.amp_factor
        noise = rng.normal(0.0, spec.noise_std, size=(spec.n_leads, spec.L))
        signals[r] = amps[:, None] * pulse[None, :] + noise
    header = DatasetHeader(
        n_leads=spec.n_leads,
        L=spec.L,
        K=3,
        class_names=spec.class_names,
        sample_rate=spec.sample_rate,
    )
    return Dataset(
        header=header,
        ids=tuple(f"synth-{r:05d}" for r in range(spec.n_records)),
        signals=signals,
        labels=labels,
        folds=np.arange(spec.n_records, dtype=np.int64) % 10 + 1,
    )
