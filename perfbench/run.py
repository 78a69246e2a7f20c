"""mswecg benchmark: two workloads, each operation a fresh CLI process.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-hashes     # after a deliberate generator change

Run from the root of a source checkout; mswecg is imported from ``src/``.
The run generates its inputs from ``--seed`` (untimed), checks that the
generators still produce the recorded reference inputs, then runs one
operation at a time (closed loop, one caller) for ``--seconds`` seconds and
checks every operation's outputs.  ``--trace 0`` reports the end-to-end
metrics, medians over operations; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.  See README.md here.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HASHES = BENCH / "inputs.sha256.json"

THREAD_VARS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
MODEL = {"P": 5, "C": 32, "heads": 4, "windows": (5, 10, 20)}
BATCH_SIZE = 16
REF_SEED = 0
CANARY_RECORDS = 20
OP_TIMEOUT_S = 150
EVAL_DATA_SEED_OFFSET = 1_000_000  # the eval set is not the checkpoint's training set


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    n_leads: int
    length: int
    records: int  # records in the dataset each operation reads
    epochs: int  # epochs of each train operation, or of the eval checkpoint
    lr0: float  # learning rate of those epochs
    ckpt_records: int = 0  # eval: records the checkpoint is trained on


# Each recipe brings the final-epoch val macro-F1 to 1.0 on every seed tried,
# so macro_f1 only moves when learning or predict breaks.  The eval checkpoint
# trains one epoch at twice the desk rate, to keep input generation short.
WORKLOADS = {
    "train_desk": Workload("train", n_leads=4, length=200, records=750, epochs=2, lr0=0.003),
    "eval_ptbxl": Workload("eval", n_leads=12, length=1000, records=1000, epochs=1, lr0=0.006,
                           ckpt_records=300),
}

END_TO_END = (
    ("setup_s", "s"),
    ("command_s", "s"),
    ("samples_per_s", "samples/s"),
    ("macro_f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result; exits non-zero."""


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cli(args, log_dir: Path) -> None:
    """Run one untimed ``mswecg`` command (input generation)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        rc = subprocess.run([sys.executable, "-m", "mswecg.cli", *map(str, args)], stdout=out,
                            stderr=err, env=child_env(), cwd=ROOT, timeout=OP_TIMEOUT_S).returncode
    if rc != 0:
        tail = (log_dir / "stderr").read_text(errors="replace")[-2000:]
        raise BenchError(f"mswecg {args[0]} exited {rc}:\n{tail}")


def synth(wl: Workload, out_dir: Path, records: int, seed: int) -> None:
    cli(["synth", "--out-dir", out_dir, "--records", records, "--n-leads", wl.n_leads,
         "--length", wl.length, "--seed", seed], out_dir / "log")


def train_args(wl: Workload, data: Path, out_dir: Path, seed: int) -> list:
    settings = {**MODEL, "windows": ",".join(map(str, MODEL["windows"])),
                "batch_size": BATCH_SIZE, "lr0": wl.lr0, "max_epochs": wl.epochs}
    sets = [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
    return ["train", "--signals", data / "signals.bin", "--labels", data / "labels.csv",
            "--out-dir", out_dir, *sets, "--seed", seed, "--quiet"]


def fold_counts(labels_csv: Path) -> dict[int, int]:
    with open(labels_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    counts: dict[int, int] = {}
    for row in rows:
        counts[int(row[1])] = counts.get(int(row[1]), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Reference inputs


def canary(wl: Workload, work: Path) -> dict[str, str]:
    """Hashes of what the generators make for the reference seed.

    The data go through ``mswecg synth`` like the workload's own; the
    initial parameters are hashed by name, shape and float64 bytes.
    """
    import numpy as np
    from mswecg import MswConfig, init_params

    data = work / "canary"
    synth(wl, data, CANARY_RECORDS, REF_SEED)
    cfg = MswConfig(L=wl.length, n_leads=wl.n_leads, K=3, **MODEL)
    h = hashlib.sha256()
    for name, t in init_params(cfg, seed=REF_SEED).items():
        h.update(f"{name}{t.data.shape}".encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    out = {"signals.bin": sha256(data / "signals.bin"), "labels.csv": sha256(data / "labels.csv"),
           "init_params": h.hexdigest()}
    shutil.rmtree(data)
    return out


def verify_canary(name: str, wl: Workload, work: Path) -> None:
    try:
        recorded = json.loads(HASHES.read_text())["workloads"][name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no recorded input hashes for {name} in {HASHES}: {exc}") from exc
    got = canary(wl, work)
    changed = [k for k in recorded if got.get(k) != recorded[k]]
    if changed:
        raise BenchError(
            f"generated reference inputs changed for {name}: {', '.join(changed)} "
            f"(reference seed {REF_SEED}, {CANARY_RECORDS} records).  The workload is no "
            "longer the one measured before; rerun with --record-hashes only as a "
            "deliberate benchmark change."
        )


def record_hashes() -> None:
    work = OUT / f"hashes-{os.getpid()}"
    try:
        table = {name: canary(wl, work) for name, wl in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    HASHES.write_text(json.dumps({"reference_seed": REF_SEED, "canary_records": CANARY_RECORDS,
                                  "workloads": table}, indent=1) + "\n")
    print(f"wrote {HASHES}")


@dataclass
class Inputs:
    data: Path
    checkpoint: Path | None
    samples: int  # samples one operation processes after set-up
    n_test: int
    hashes: dict


def generate(wl: Workload, seed: int, work: Path) -> Inputs:
    """The workload's inputs for ``seed``; flushed to disk before timing."""
    files = []
    checkpoint = None
    if wl.kind == "eval":
        ck_data = work / "ckpt_data"
        synth(wl, ck_data, wl.ckpt_records, seed)
        cli(train_args(wl, ck_data, work / "ckpt_run", seed), work / "ckpt_log")
        checkpoint = work / "ckpt_run" / "checkpoint"
        files += [ck_data / "signals.bin", ck_data / "labels.csv",
                  checkpoint.with_suffix(".json"), checkpoint.with_suffix(".bin")]
        data_seed = seed + EVAL_DATA_SEED_OFFSET
    else:
        data_seed = seed
    data = work / "data"
    synth(wl, data, wl.records, data_seed)
    files += [data / "signals.bin", data / "labels.csv"]
    for path in files:
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    folds = fold_counts(data / "labels.csv")
    n_train = sum(folds.get(f, 0) for f in range(1, 9))
    samples = n_train * wl.epochs if wl.kind == "train" else folds.get(10, 0)
    return Inputs(data, checkpoint, samples, folds.get(10, 0),
                  {str(p.relative_to(work)): sha256(p) for p in files})


# ---------------------------------------------------------------------------
# Operations and their output checks


def check_train(run_dir: Path, epochs: int) -> tuple[str | None, float | None]:
    from mswecg import load_checkpoint

    try:
        lines = (run_dir / "metrics.csv").read_text().splitlines()
    except OSError as exc:
        return f"no metrics.csv: {exc}", None
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    got = [(r.get("epoch"), r.get("split")) for r in rows]
    want = [(str(e), split) for e in range(epochs) for split in ("train", "val")]
    if got != want:
        return f"metrics.csv rows {got} != {want}", None
    if not all(math.isfinite(float(r["loss"])) for r in rows):
        return "metrics.csv holds a non-finite loss", None
    try:
        store, config = load_checkpoint(run_dir / "checkpoint")
    except Exception as exc:  # any failure to load is the finding
        return f"checkpoint does not load: {exc!r}", None
    params = list(store.items())
    if not params or "model" not in config:
        return "checkpoint holds no parameters or no model config", None
    if not all(math.isfinite(float(t.data.sum())) for _, t in params):
        return "checkpoint holds non-finite parameters", None
    return None, float(rows[-1]["macro_f1"])


def check_eval(report: Path, n_test: int, evaluated: list[int]) -> tuple[str | None, float | None]:
    try:
        payload = json.loads(report.read_text())
        m = payload["metrics"]
        values = [m[k] for k in ("accuracy", "macro_f1", "samples_f1", "auc_macro",
                                 "auc_samples")]
        values += m["per_class_precision"] + m["per_class_recall"] + m["per_class_f1"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}", None
    if payload.get("split") != "test":
        return f"report split {payload.get('split')!r} != 'test'", None
    if not evaluated or evaluated[-1] != n_test:
        return f"report covers {evaluated[-1:]} records, the test split holds {n_test}", None
    if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
        return f"report metrics outside [0, 1]: {values}", None
    return None, float(m["macro_f1"])


def run_op(k: int, wl: Workload, inputs: Inputs, seed: int, work: Path, traced: bool):
    """One operation in a fresh process; returns (result, child record)."""
    op_dir = work / f"op{k}"
    op_dir.mkdir()
    if wl.kind == "train":
        args = train_args(wl, inputs.data, op_dir / "run", seed)
    else:
        args = ["eval", "--checkpoint", inputs.checkpoint, "--signals",
                inputs.data / "signals.bin", "--labels", inputs.data / "labels.csv",
                "--split", "test", "--out", op_dir / "report.json"]
    record_path = op_dir / "record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--record", str(record_path),
           "--run-id", f"op{k}", *(["--trace"] if traced else []), "--", *map(str, args)]
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = f"timeout after {OP_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()

    result = {"op": k, "traced": traced, "rc": rc, "wall_s": end - start}
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    if rc != 0:
        problem, f1 = f"exit code {rc}", None
    elif record is None or record["first_forward"] is None:
        problem, f1 = "no child record or no forward pass", None
    elif wl.kind == "train":
        problem, f1 = check_train(op_dir / "run", wl.epochs)
    else:
        problem, f1 = check_eval(op_dir / "report.json", inputs.n_test,
                                 record["evaluate_records"])
    result["problem"] = problem
    if problem is None:
        result.update(
            setup_s=record["first_forward"] - start,
            command_s=end - start,
            samples_per_s=inputs.samples / (record["main_end"] - record["first_forward"]),
            macro_f1=f1,
            peak_rss_mb=record["maxrss_mb"],
            cpu_s=record["cpu_s"],
        )
    else:
        tail = (op_dir / "stderr").read_text(errors="replace")[-1500:]
        print(f"op{k} failed: {problem}\n{tail}", file=sys.stderr)
    shutil.rmtree(op_dir, ignore_errors=True)
    return result, record


# ---------------------------------------------------------------------------
# Environment and result


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "host": platform.node(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(load),
        "loaded_at_start": load[0] > nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": THREAD_VARS,
        "platform": platform.platform(),
    }


def median_of(results, key):
    values = [r[key] for r in results if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def run_ops(wl: Workload, inputs: Inputs, seed: int, seconds: int, trace: bool, work: Path):
    """A warm-up operation, then operations back to back while the typical one
    still fits in ``seconds``.

    The warm-up reads the inputs into the page cache and writes mswecg's
    bytecode cache.  It is checked like every operation but left out of the
    timings.  With ``trace``, the timed operations alternate untraced and traced.
    """
    results, records = [], []
    deadline = time.monotonic() + seconds
    while True:
        k = len(results)
        traced = trace and k >= 2 and k % 2 == 0
        result, record = run_op(k, wl, inputs, seed, work, traced)
        result["warmup"] = k == 0
        results.append(result)
        records.append(record)
        enough = len(results) >= (3 if trace else 2)
        typical = statistics.median(r["wall_s"] for r in results[1:]) if k else 0.0
        if enough and time.monotonic() + typical > deadline:
            return results, records


def end_to_end(results) -> dict[str, float]:
    ok = [r for r in results if r["problem"] is None]
    untraced = [r for r in ok if not r["traced"] and not r["warmup"]]
    values = {key: median_of(untraced, key) for key, _ in END_TO_END}
    values["success_ratio"] = len(ok) / len(results)
    for key, unit in END_TO_END:
        print(f"{key:16s} {values[key]:14.6f} {unit:10s} median of {len(untraced)} operations")
    return values


def per_layer(name: str, seed: int, results, records) -> dict[str, float]:
    """Per-layer metrics from the traced operations; writes their spans."""
    ok = [(r, rec) for r, rec in zip(results, records) if r["problem"] is None]
    traced = [(r, rec) for r, rec in ok if r["traced"]]
    untraced = [r for r, _ in ok if not r["traced"] and not r["warmup"]]
    all_spans = [s for _, rec in traced for s in rec["spans"]]
    absent = {k: v for _, rec in traced for k, v in rec["absent"].items()}
    overhead = (median_of([r for r, _ in traced], "command_s") - median_of(untraced, "command_s")
                if traced and untraced else None)
    values, reasons = spans.layer_metrics(all_spans, [rec["counters"] for _, rec in traced],
                                          WORKLOADS[name].kind == "train", overhead, absent)
    trace_file = OUT / "traces" / f"{name}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"workload": name, "seed": seed, "absent": reasons,
                                      "spans": all_spans}))
    print(f"{'span':28s} {'calls':>6s} {'p50 ms':>10s} {'p50 self ms':>12s}")
    for row in spans.span_table(all_spans):
        print(f"{row[0]:28s} {row[1]:6d} {row[2]:10.3f} {row[3]:12.3f}")
    for metric, why in reasons.items():
        print(f"absent: {metric}: {why}")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return values


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    env = environment()
    if env["loaded_at_start"]:
        print(f"warning: load average {env['loadavg_before'][0]:.2f} exceeds nproc "
              f"{env['nproc']} at start; figures may be disturbed", file=sys.stderr)
    try:
        work.mkdir(parents=True)
        verify_canary(name, wl, work)
        inputs = generate(wl, seed, work)
        env["inputs"] = inputs.hashes
        results, records = run_ops(wl, inputs, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    if trace:
        values = per_layer(name, seed, results, records)
        units = {m.name: m.unit for m in spans.layer_specs()}
    else:
        values = end_to_end(results)
        units = dict(END_TO_END)
    failed = sum(r["problem"] is not None for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    result_file = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                       "environment": env, "operations": results,
                                       "result": summary}, indent=1))
    print("environment " + json.dumps(env))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true",
                        help="regenerate the reference-input hashes and exit")
    args = parser.parse_args(argv)
    if not args.record_hashes and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "mswecg" / "cli.py").is_file():
        print(f"error: no mswecg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _sigterm)
    os.environ.update(THREAD_VARS)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    try:
        import mswecg

        if Path(mswecg.__file__).resolve().parent != (SRC / "mswecg").resolve():
            raise BenchError(f"mswecg resolved to {mswecg.__file__}, not {SRC}")
        if args.record_hashes:
            record_hashes()
            return 0
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
