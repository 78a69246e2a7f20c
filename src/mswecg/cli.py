"""Command-line entry point.

Subcommands: train, eval, flops, attn, synth, gradcheck.  Configuration is
a flat ``key = value`` text file mirroring the model/train config fields;
``--set key=value`` flags override file values.  Every run echoes its fully
resolved configuration, and every artifact embeds it.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .attnviz import dump_for_record, export
from .complexity import format_sweep_csv, sweep, write_sweep_csv
from .config import MswConfig
from .data import (
    SPLIT_FOLDS,
    DatasetHeader,
    SynthSpec,
    load_dataset,
    read_header,
    save_dataset,
    standardize,
    synth_generate,
)
from .errors import AdmissibilityError, ConfigError, DataError, DimensionError, NumericError
from .metrics import EvalBatch, evaluate
from .model import predict
from .params import ParamStore, init_params, load_checkpoint, param_shapes, save_checkpoint
from .train import TrainConfig, finite_difference_audit, train_loop, write_metric_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

GRADCHECK_TOLERANCE = 1e-4


def _int_list(text: str, name: str = "value") -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(text).replace(" ", "").split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"{name} must be comma-separated integers, got {text!r}") from exc


# Flat-file schema: every model/train field, one parser each.
MODEL_KEYS = {
    "L": int,
    "n_leads": int,
    "K": int,
    "P": int,
    "C": int,
    "heads": int,
    "windows": _int_list,
    "shift": int,
    "attn_dropout": float,
    "mlp_ratio": int,
}
TRAIN_KEYS = {
    "max_epochs": int,
    "batch_size": int,
    "lr0": float,
    "decay_factor": float,
    "decay_every": int,
    "seed": int,
    "report_every": int,
}


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _typed(values: dict) -> dict:
    """Parse each raw text value by its key's schema entry."""
    out = {}
    for key, raw in values.items():
        parse = MODEL_KEYS.get(key) or TRAIN_KEYS.get(key)
        if parse is None:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            out[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def collect_settings(args) -> dict:
    """File values, then --set overrides, then --seed."""
    values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_file(path))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()
    out = _typed(values)
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    return out


def check_geometry(values: dict, header: DatasetHeader, source: str = "config") -> None:
    """Raise a ConfigError for the first of L, n_leads and K ``values`` sets unlike ``header``."""
    for key, actual in (("L", header.L), ("n_leads", header.n_leads), ("K", header.K)):
        if key in values and values[key] != actual:
            raise ConfigError(
                f"{source} {key}={values[key]} does not match the dataset ({key}={actual})"
            )


def resolve_configs(settings: dict, header: DatasetHeader) -> tuple[MswConfig, TrainConfig]:
    """Build both configs; dataset geometry wins over (and checks) file values."""
    check_geometry(settings, header)
    model_kwargs = {k: v for k, v in settings.items() if k in MODEL_KEYS}
    model_kwargs.update(L=header.L, n_leads=header.n_leads, K=header.K)
    train_kwargs = {k: v for k, v in settings.items() if k in TRAIN_KEYS}
    return MswConfig.from_dict(model_kwargs), TrainConfig(**train_kwargs)


def _check_flag(flag: str, value, ok: bool, need: str) -> None:
    """Reject a command-line value before any compute, naming its flag."""
    if not ok:
        raise ConfigError(f"{flag} must be {need}, got {value!r}")


def echo_config(config: dict) -> None:
    print("resolved config:")
    for key in sorted(config):
        print(f"  {key} = {config[key]}")


# ---------------------------------------------------------------------------
# Subcommands


def run_train(args) -> int:
    settings = collect_settings(args)
    # Admissibility is checked here, before any data or compute.
    cfg, tcfg0 = resolve_configs(settings, read_header(args.signals)[0])
    out_dir = Path(args.out_dir)
    tcfg = TrainConfig(**{**tcfg0.to_dict(), "checkpoint": str(out_dir / "checkpoint")})
    resolved = {"model": cfg.to_dict(), "train": tcfg.to_dict()}
    echo_config({**cfg.to_dict(), **tcfg.to_dict()})
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable out-dir fails before training

    ds = load_dataset(args.signals, args.labels)
    params = init_params(cfg, seed=tcfg.seed)
    result = train_loop(cfg, params, ds, tcfg, verbose=not args.quiet)
    # The log embeds the run config but not the artifact location, so two
    # same-seed runs in different directories produce identical files.
    log_config = {**cfg.to_dict(), **tcfg.to_dict()}
    log_config.pop("checkpoint", None)
    write_metric_log(result.log, out_dir / "metrics.csv", config=log_config)
    if result.best_epoch < 0:
        # No validation fold: retain the final parameters instead.
        save_checkpoint(result.params, tcfg.checkpoint, config=resolved)
        print("no validation fold; retained final-epoch parameters")
    else:
        print(f"best val macro-F1 {result.best_val_macro_f1:.4f} at epoch {result.best_epoch}")
    print(f"wrote {out_dir / 'metrics.csv'} and {tcfg.checkpoint}.json/.bin")
    return EXIT_OK


def load_model(checkpoint) -> tuple[MswConfig, ParamStore, dict]:
    """A checkpoint's model config, parameters and saved config.

    Every parameter of that config (``param_shapes``) must be present with
    its shape, and no other; the error names the first that is not.  Nothing
    is allocated for the config before the shapes are compared.
    """
    store, saved = load_checkpoint(checkpoint)
    model_cfg = saved.get("model")
    if not model_cfg or not isinstance(model_cfg, dict):
        raise ConfigError(f"checkpoint {checkpoint} carries no model config")
    cfg = MswConfig.from_dict(model_cfg)
    want = dict(param_shapes(cfg))
    for name, shape in want.items():
        if name not in store:
            raise DataError(f"checkpoint {checkpoint} lacks parameter {name}")
        if store[name].shape != shape:
            raise DataError(f"checkpoint {checkpoint}: parameter {name} has shape "
                            f"{store[name].shape}, the model config needs {shape}")
    for name in store.names():
        if name not in want:
            raise DataError(f"checkpoint {checkpoint} has unknown parameter {name}")
    return cfg, store, saved


def run_eval(args) -> int:
    cfg, store, saved = load_model(args.checkpoint)
    ds = load_dataset(args.signals, args.labels)
    check_geometry(cfg.to_dict(), ds.header, "checkpoint")
    if args.out:  # a report path that cannot be written fails before a sample is read
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.is_dir():
            raise DataError(f"--out {out} is a directory")
    echo_config(cfg.to_dict())
    signals = standardize(ds)  # a bad sample is named before an empty split
    rows = np.flatnonzero(np.isin(ds.folds, SPLIT_FOLDS[args.split]))
    if not len(rows):
        raise DataError(f"split {args.split!r} holds no records")
    probs = predict(signals, cfg, store, rows=rows)
    report = evaluate(EvalBatch(scores=probs, labels=ds.labels[rows]))
    payload = {"split": args.split, "config": saved, "metrics": report.to_dict()}
    text = json.dumps(payload, indent=1)
    if args.out:
        out.write_text(text)  # the report is printed only once it is written
        text += f"\nwrote {args.out}"
    print(text)
    return EXIT_OK


def run_flops(args) -> int:
    windows = _int_list(args.windows, "--windows")
    _check_flag("--channels", args.channels, args.channels >= 1, ">= 1")
    _check_flag("--windows", args.windows, min(windows, default=0) >= 1,
                "one or more integers >= 1")
    _check_flag("--l-min", args.l_min, args.l_min >= 1, ">= 1")
    _check_flag("--l-max", args.l_max, args.l_max >= args.l_min, f">= --l-min ({args.l_min})")
    _check_flag("--l-step", args.l_step, args.l_step >= 1, ">= 1")
    lengths = range(args.l_min, args.l_max + 1, args.l_step)
    config = {
        "channels": args.channels,
        "windows": list(windows),
        "unit": args.unit,
        "l_min": args.l_min,
        "l_max": args.l_max,
        "l_step": args.l_step,
    }
    echo_config(config)
    rows = sweep(lengths, args.channels, windows)
    if args.out:
        write_sweep_csv(rows, args.out, args.channels, windows, unit=args.unit)
        print(f"wrote {args.out}")
    else:
        print(format_sweep_csv(rows, args.channels, windows, unit=args.unit), end="")
    first = rows[0]
    print(f"L={first[0]}: global {first[1]} vs windowed {first[2]} (ratio {first[3]:.2f})")
    return EXIT_OK


def run_attn(args) -> int:
    leads = _int_list(args.leads, "--leads") if args.leads else ()
    cfg, store, _ = load_model(args.checkpoint)
    ds = load_dataset(args.signals, args.labels)
    check_geometry(cfg.to_dict(), ds.header, "checkpoint")
    n = ds.header.n_leads
    for lead in leads:
        _check_flag("--leads", args.leads, 0 <= lead < n, f"lead indices in 0..{n - 1}")
    echo_config(cfg.to_dict())
    if args.record and args.record not in ds.ids:
        raise DataError(f"record id {args.record!r} not in dataset")
    row = ds.ids.index(args.record) if args.record else 0
    record_id, signal = ds.ids[row], standardize(ds)[row]
    dump = dump_for_record(record_id, signal, cfg, store)
    written = export(dump, signal, args.out_dir, leads=leads,
                     config={"model": cfg.to_dict(), "record_id": record_id})
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def run_synth(args) -> int:
    _check_flag("--noise-std", args.noise_std, math.isfinite(args.noise_std)
                and args.noise_std >= 0, "finite and >= 0")
    _check_flag("--seed", args.seed, args.seed >= 0, ">= 0")
    for flag, value in (("--records", args.records), ("--n-leads", args.n_leads),
                        ("--length", args.length)):
        _check_flag(flag, value, value >= 1, ">= 1")
    spec = SynthSpec(
        seed=args.seed,
        n_records=args.records,
        n_leads=args.n_leads,
        L=args.length,
        noise_std=args.noise_std,
    )
    echo_config(spec.__dict__)
    ds = synth_generate(spec)
    out_dir = Path(args.out_dir)
    signal_file = out_dir / "signals.bin"
    label_file = out_dir / "labels.csv"
    save_dataset(ds, signal_file, label_file)
    # The two data files follow the fixed ingest format; the resolved spec
    # rides along in a sidecar.
    (out_dir / "synth_spec.json").write_text(json.dumps(spec.__dict__, indent=1))
    print(f"wrote {signal_file} ({signal_file.stat().st_size} bytes) and {label_file}")
    return EXIT_OK


def run_gradcheck(args) -> int:
    _check_flag("--step", args.step, math.isfinite(args.step) and args.step > 0,
                "finite and > 0")
    _check_flag("--seed", args.seed, args.seed >= 0, ">= 0")
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)
    echo_config({**cfg.to_dict(), "seed": args.seed, "step": args.step})
    rng = np.random.default_rng(args.seed)
    params = init_params(cfg, seed=args.seed)
    signals = rng.normal(size=(2, cfg.n_leads, cfg.L))
    labels = (rng.random((2, cfg.K)) < 0.5).astype(np.float64)
    worst, per_param = finite_difference_audit(cfg, params, signals, labels, step=args.step)
    for name in sorted(per_param, key=per_param.get, reverse=True)[:5]:
        print(f"  {name}: {per_param[name]:.3e}")
    print(f"max rel error {worst:.3e} over {len(per_param)} parameters "
          f"({'OK' if worst < GRADCHECK_TOLERANCE else 'FAIL'}, tolerance {GRADCHECK_TOLERANCE})")
    return EXIT_OK if worst < GRADCHECK_TOLERANCE else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mswecg",
        description="Multi-scale windowed-attention ECG classifier toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the seed")

    p_train = sub.add_parser("train", help="train a model and write checkpoint + metric log")
    add_common(p_train)
    p_train.add_argument("--signals", required=True)
    p_train.add_argument("--labels", required=True)
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=run_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on one fold split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--signals", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--split", choices=tuple(SPLIT_FOLDS), default="test")
    p_eval.add_argument("--out", help="write the report JSON here")
    p_eval.set_defaults(func=run_eval)

    p_flops = sub.add_parser("flops", help="global vs windowed MAC comparison CSV")
    p_flops.add_argument("--channels", type=int, default=12)
    p_flops.add_argument("--windows", default="5,10,20")
    p_flops.add_argument("--l-min", type=int, default=1000)
    p_flops.add_argument("--l-max", type=int, default=10000)
    p_flops.add_argument("--l-step", type=int, default=1000)
    p_flops.add_argument("--unit", choices=("samples", "tokens"), default="samples",
                         help="how L is to be read; counts are unit-agnostic")
    p_flops.add_argument("--out")
    p_flops.set_defaults(func=run_flops)

    p_attn = sub.add_parser("attn", help="export attention scores for one record")
    p_attn.add_argument("--checkpoint", required=True)
    p_attn.add_argument("--signals", required=True)
    p_attn.add_argument("--labels", required=True)
    p_attn.add_argument("--record", help="record id (default: first record)")
    p_attn.add_argument("--leads", help="comma-separated lead indices for SVG export")
    p_attn.add_argument("--out-dir", required=True)
    p_attn.set_defaults(func=run_attn)

    p_synth = sub.add_parser("synth", help="generate the synthetic dataset files")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--records", type=int, default=750)
    p_synth.add_argument("--n-leads", type=int, default=4)
    p_synth.add_argument("--length", type=int, default=200)
    p_synth.add_argument("--noise-std", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=run_synth)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit of the full model")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.set_defaults(func=run_gradcheck)

    return parser


# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Have the C allocator keep freed blocks for reuse, in one arena.

    Each batch allocates the same large numpy temporaries.  By default glibc
    unmaps or trims them when they are freed, and the next batch faults them
    back in: about 17k page faults per 100-record ``predict`` at 12 leads x
    1000 samples.  The model's pool threads (``model._on_pool``) would each
    get a fresh malloc arena that cannot reuse the heap set-up freed (eval at
    1000 x 12 x 1000 peaked at 93 rather than 75 MB), so all threads share
    the main arena.
    Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _keep_freed_memory()
    if gc.get_freeze_count() == 0:
        # What the imports built lives until exit: keep it out of every
        # collection, the one at interpreter teardown included.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AdmissibilityError, DimensionError) as exc:
        print(f"{args.subcommand}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"{args.subcommand}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"{args.subcommand}: numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # a path that cannot be read or written; the error names it
        print(f"{args.subcommand}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
