import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mswecg
from mswecg.cli import MODEL_KEYS, TRAIN_KEYS, _typed, load_model, main, resolve_configs
from mswecg.data import Dataset, DatasetHeader, SynthSpec, save_dataset, synth_generate
from mswecg.errors import AdmissibilityError, ConfigError, DataError, DimensionError
from mswecg.params import ParamStore, load_checkpoint, save_checkpoint

TINY_SETTINGS = [
    "--set", "P=5", "--set", "C=8", "--set", "heads=2", "--set", "windows=5,10,20",
    "--set", "max_epochs=2", "--set", "batch_size=8",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    code = main(["synth", "--out-dir", str(out), "--records", "40",
                 "--n-leads", "2", "--length", "200", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--out-dir", str(out), "--seed", "7", "--quiet", *TINY_SETTINGS,
    ])
    assert code == 0
    return out


def test_synth_writes_documented_byte_length(synth_dir):
    size = (synth_dir / "signals.bin").stat().st_size
    header = len("2 200 3 100\n")
    assert size == header + 40 * 2 * 200 * 8
    rows = list(csv.reader(open(synth_dir / "labels.csv")))
    assert rows[0] == ["id", "fold", "WIDE", "TALL", "SLOW"]
    assert len(rows) == 41


def test_synth_deterministic_under_seed(tmp_path, synth_dir):
    again = tmp_path / "again"
    assert main(["synth", "--out-dir", str(again), "--records", "40",
                 "--n-leads", "2", "--length", "200", "--seed", "5"]) == 0
    assert (again / "signals.bin").read_bytes() == (synth_dir / "signals.bin").read_bytes()
    assert (again / "labels.csv").read_text() == (synth_dir / "labels.csv").read_text()


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "metrics.csv").exists()
    assert (trained_dir / "checkpoint.json").exists()
    assert (trained_dir / "checkpoint.bin").exists()
    manifest = json.loads((trained_dir / "checkpoint.json").read_text())
    assert manifest["config"]["model"]["windows"] == [5, 10, 20]


def test_train_inadmissible_windows_exit_2(synth_dir, tmp_path, capsys):
    code = main([
        "train", "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--out-dir", str(tmp_path), "--set", "P=5", "--set", "C=8",
        "--set", "heads=2", "--set", "windows=7",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "window scale 7" in err and "40" in err  # T = 200/5 = 40


def test_train_unknown_key_exit_2(synth_dir, tmp_path, capsys):
    code = main([
        "train", "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--out-dir", str(tmp_path), "--set", "bogus=1",
    ])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


# (--set value, text the error must contain)
_BAD_SETTINGS = [
    ("C=abc", "config key 'C'"),
    ("max_epochs=1.5", "config key 'max_epochs'"),
    ("windows=5,x", "config key 'windows'"),
    ("heads=0", "heads must be >= 1, got 0"),
    ("heads=-4", "heads must be >= 1, got -4"),
    ("decay_factor=nan", "decay_factor must be positive and finite, got nan"),
    ("lr0=inf", "lr0 must be positive and finite, got inf"),
    ("seed=-1", "seed must be >= 0, got -1"),
    ("report_every=0", "report_every must be >= 1, got 0"),
]


@pytest.mark.parametrize("setting,needle", _BAD_SETTINGS, ids=[c[0] for c in _BAD_SETTINGS])
def test_train_bad_setting_exits_2_naming_it(synth_dir, tmp_path, capsys, setting, needle):
    code = main(["train", "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv"), "--out-dir", str(tmp_path),
                 "--quiet", *TINY_SETTINGS, "--set", setting])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("train: config error:") and needle in err, err
    assert not (tmp_path / "checkpoint.json").exists()


def test_train_undecodable_config_file_exits_2(synth_dir, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xffP = 5\n")
    code = main(["train", "--config", str(cfg_file), "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv"), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"cannot read config file {cfg_file}" in capsys.readouterr().err


def test_train_seed_repeat_identical_metric_log(synth_dir, trained_dir, tmp_path):
    rerun = tmp_path / "rerun"
    code = main([
        "train", "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--out-dir", str(rerun), "--seed", "7", "--quiet", *TINY_SETTINGS,
    ])
    assert code == 0
    assert (rerun / "metrics.csv").read_text() == (trained_dir / "metrics.csv").read_text()


def test_train_missing_signals_exit_3(tmp_path, capsys):
    code = main([
        "train", "--signals", str(tmp_path / "nope.bin"),
        "--labels", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path),
    ])
    assert code == 3


@pytest.mark.parametrize("subcommand", ["train", "eval"])
def test_a_set_whose_samples_overflow_a_sum_exits_3_naming_the_row(trained_dir, tmp_path,
                                                                     capsys, subcommand):
    # Every sample finite: at 1e308 the row's per-lead sums are not, at 1e200
    # only its squared deviations from the training mean.
    for value, what in ((1e308, "samples"), (1e200, "squared deviations")):
        ds = synth_generate(SynthSpec(seed=5, n_records=40, n_leads=2, L=200))
        ds.signals[0] = value
        save_dataset(ds, tmp_path / "signals.bin", tmp_path / "labels.csv")
        where = (["--out-dir", str(tmp_path / "run"), *TINY_SETTINGS] if subcommand == "train"
                 else ["--checkpoint", str(trained_dir / "checkpoint")])
        with np.errstate(over="ignore"):
            code = main([subcommand, "--signals", str(tmp_path / "signals.bin"),
                         "--labels", str(tmp_path / "labels.csv"), *where])
        assert code == 3
        assert (f"record synth-00000 (row 0): a lead's {what} sum past"
                in capsys.readouterr().err)


@pytest.mark.parametrize("subcommand", ["train", "eval", "attn"])
def test_a_command_opens_the_label_file_once(synth_dir, trained_dir, tmp_path, monkeypatch,
                                             subcommand):
    labels, opened, real_open = synth_dir / "labels.csv", [], open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == labels:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    flags = {"train": ["--out-dir", str(tmp_path / "run"), "--quiet", *TINY_SETTINGS],
             "eval": ["--checkpoint", str(trained_dir / "checkpoint")],
             "attn": ["--checkpoint", str(trained_dir / "checkpoint"),
                      "--out-dir", str(tmp_path / "viz")]}[subcommand]
    assert main([subcommand, "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(labels), *flags]) == 0
    assert len(opened) == 1


def test_config_file_with_flag_override(synth_dir, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "P = 5\nC = 8\nheads = 2\nwindows = 5,10,20\n"
        "max_epochs = 1\nbatch_size = 8\nseed = 1\n# comment\n"
    )
    out = tmp_path / "out"
    code = main([
        "train", "--config", str(cfg_file), "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"), "--out-dir", str(out),
        "--set", "max_epochs=2", "--quiet",
    ])
    assert code == 0
    text = (out / "metrics.csv").read_text()
    rows = [line for line in text.splitlines() if line.startswith("1,")]
    assert rows  # epoch 1 exists, so the override took effect


def test_eval_reproduces_logged_val_metrics_bitwise(synth_dir, trained_dir, capsys):
    code = main([
        "eval", "--checkpoint", str(trained_dir / "checkpoint"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"), "--split", "val",
    ])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    metrics = payload["metrics"]
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert 0.0 <= metrics["macro_f1"] <= 1.0

    best_epoch = json.loads((trained_dir / "checkpoint.json").read_text())["config"]["best_epoch"]
    with open(trained_dir / "metrics.csv") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header = rows[0]
    val_row = next(r for r in rows[1:] if r[0] == str(best_epoch) and r[1] == "val")
    for key in ("accuracy", "macro_f1", "samples_f1", "auc_macro", "auc_samples"):
        logged = float(val_row[header.index(key)])
        got = metrics[key]
        if math.isnan(logged):
            assert got is None or math.isnan(got)
        else:
            assert got == logged  # bitwise: repr round-trips float64 exactly


def test_eval_missing_checkpoint_exit_3(synth_dir, tmp_path):
    code = main([
        "eval", "--checkpoint", str(tmp_path / "missing"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
    ])
    assert code == 3


def test_eval_nan_weight_checkpoint_exit_4(synth_dir, trained_dir, tmp_path, capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    store["branch1.mlp.W1"].data[0, 0] = math.nan
    save_checkpoint(store, tmp_path / "nan", config=config)
    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--checkpoint", str(tmp_path / "nan"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"), "--split", "test",
        "--out", str(report_path),
    ])
    assert code == 4
    # The first test-fold record: file row 9 (folds are assigned round-robin).
    assert "non-finite probability nan for record 9" in capsys.readouterr().err
    assert not report_path.exists()


def test_attn_nan_weight_checkpoint_exit_4_writes_nothing(synth_dir, trained_dir, tmp_path,
                                                         capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    store["branch1.mlp.W1"].data[0, 0] = math.nan
    save_checkpoint(store, tmp_path / "nan", config=config)
    out = tmp_path / "viz"
    code = main([
        "attn", "--checkpoint", str(tmp_path / "nan"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--record", "synth-00000", "--leads", "0", "--out-dir", str(out),
    ])
    assert code == 4
    assert "attn: numeric abort: branch M=5: non-finite fusion weight beta" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_eval_writes_report_json(synth_dir, trained_dir, tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--checkpoint", str(trained_dir / "checkpoint"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"), "--split", "test",
        "--out", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["split"] == "test"
    assert "model" in payload["config"]
    for key in ("accuracy", "macro_f1", "samples_f1"):
        assert 0.0 <= payload["metrics"][key] <= 1.0


def test_flops_first_row_matches_formulas(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(["flops", "--out", str(out_csv)])
    assert code == 0
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "L,omega_msa,omega_mswsa,ratio"
    first = lines[1].split(",")
    assert first[:3] == ["1000", "24576000", "1416000"]
    assert abs(float(first[3]) - 24576000 / 1416000) < 1e-12
    assert "ratio 17.36" in capsys.readouterr().out


def test_attn_exports_json_and_svg(synth_dir, trained_dir, tmp_path):
    out = tmp_path / "viz"
    code = main([
        "attn", "--checkpoint", str(trained_dir / "checkpoint"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--record", "synth-00000", "--leads", "0,1", "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "synth-00000.json").exists()
    assert (out / "synth-00000_lead0.svg").exists()
    assert (out / "synth-00000_lead1.svg").exists()
    payload = json.loads((out / "synth-00000.json").read_text())
    assert payload["config"]["record_id"] == "synth-00000"
    assert abs(sum(payload["beta"]) - 1.0) < 1e-12


# (--leads value, what the error says the flag must be)
_BAD_LEADS = [("99", "lead indices in 0..1"), ("-1", "lead indices in 0..1"),
              ("0,2", "lead indices in 0..1"), ("a", "comma-separated integers")]


@pytest.mark.parametrize("leads,need", _BAD_LEADS, ids=[c[0] for c in _BAD_LEADS])
def test_attn_lead_outside_the_dataset_exits_2_and_writes_nothing(synth_dir, trained_dir,
                                                                  tmp_path, capsys, monkeypatch,
                                                                  leads, need):
    # The leads are checked against the set's layout, before a sample is read.
    monkeypatch.setattr("mswecg.cli.standardize", lambda *a: pytest.fail("a sample was read"))
    out = tmp_path / "viz"
    code = main([
        "attn", "--checkpoint", str(trained_dir / "checkpoint"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--record", "synth-00000", "--leads", leads, "--out-dir", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"attn: config error: --leads must be {need}"), err
    assert not out.exists()


def test_attn_unknown_record_exit_3(synth_dir, trained_dir, tmp_path):
    code = main([
        "attn", "--checkpoint", str(trained_dir / "checkpoint"),
        "--signals", str(synth_dir / "signals.bin"),
        "--labels", str(synth_dir / "labels.csv"),
        "--record", "nope", "--out-dir", str(tmp_path),
    ])
    assert code == 3


def test_gradcheck_exits_zero_with_small_error(capsys):
    code = main(["gradcheck"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max rel error" in out and "OK" in out


@pytest.mark.parametrize("key,value", [("n_leads", 4), ("L", 400), ("K", 2)])
def test_checkpoint_geometry_unlike_the_dataset_exits_2_before_reading_it(
        trained_dir, tmp_path, capsys, monkeypatch, key, value):
    # A well-formed set that differs from the checkpoint's geometry (n_leads=2,
    # L=200, K=3) in one key; its samples are never read.
    geometry = {"n_leads": 2, "L": 200, "K": 3, key: value}
    ds = synth_generate(SynthSpec(n_records=10, n_leads=geometry["n_leads"], L=geometry["L"]))
    K = geometry["K"]
    ds = Dataset(dataclasses.replace(ds.header, K=K, class_names=ds.header.class_names[:K]),
                 ds.ids, ds.signals, ds.labels[:, :K], ds.folds)
    save_dataset(ds, tmp_path / "signals.bin", tmp_path / "labels.csv")
    monkeypatch.setattr("mswecg.cli.standardize", lambda *a: pytest.fail("a sample was read"))
    data = ["--signals", str(tmp_path / "signals.bin"), "--labels", str(tmp_path / "labels.csv")]
    for argv in (["eval", *data], ["attn", *data, "--out-dir", str(tmp_path / "viz")]):
        assert main([argv[0], "--checkpoint", str(trained_dir / "checkpoint"), *argv[1:]]) == 2
        err = capsys.readouterr().err
        want = {"n_leads": 2, "L": 200, "K": 3}[key]
        assert err.startswith(f"{argv[0]}: config error: checkpoint {key}={want} does not "
                              f"match the dataset ({key}={value})"), err
    assert not (tmp_path / "viz").exists()


def test_eval_out_under_a_file_exits_3_before_reading_the_set(synth_dir, trained_dir, tmp_path,
                                                              capsys, monkeypatch):
    file = tmp_path / "in-the-way"
    file.write_text("")
    monkeypatch.setattr("mswecg.cli.standardize", lambda *a: pytest.fail("a sample was read"))
    assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                 "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv"), "--out", str(file / "report.json")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("eval: data error:") and str(file) in captured.err
    assert "macro_f1" not in captured.out and file.read_text() == ""


def test_eval_prints_the_report_it_wrote(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "reports" / "report.json"
    assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint"),
                 "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith(f"{out.read_text()}\nwrote {out}\n")


# (subcommand, its flags, the path the error must name): {file} is a plain
# file in the way, {run} a trained run's directory and {data} its data set.
_DATA_FLAGS = ["--signals", "{data}/signals.bin", "--labels", "{data}/labels.csv"]
_UNWRITABLE_OUTPUTS = [
    ("train", [*_DATA_FLAGS, "--out-dir", "{file}", "--quiet", *TINY_SETTINGS], "{file}"),
    ("eval", [*_DATA_FLAGS, "--checkpoint", "{run}/checkpoint", "--out", "{run}"], "{run}"),
    ("synth", ["--out-dir", "{file}", "--records", "10"], "{file}"),
    ("flops", ["--out", "{file}/sweep.csv"], "{file}"),
]


@pytest.mark.parametrize("subcommand,flags,path", _UNWRITABLE_OUTPUTS,
                         ids=[c[0] for c in _UNWRITABLE_OUTPUTS])
def test_unwritable_output_path_exits_3_naming_it(synth_dir, trained_dir, tmp_path, capsys,
                                                 monkeypatch, subcommand, flags, path):
    file = tmp_path / "in-the-way"
    file.write_text("")
    if subcommand == "train":  # fails before it loads the set
        monkeypatch.setattr("mswecg.cli.load_dataset", lambda *a: pytest.fail("dataset was read"))
    if subcommand == "eval":  # fails before it reads a sample
        monkeypatch.setattr("mswecg.cli.standardize", lambda *a: pytest.fail("a sample was read"))
    fill = {"data": synth_dir, "run": trained_dir, "file": file}
    assert main([subcommand, *(flag.format(**fill) for flag in flags)]) == 3
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"{subcommand}: data error:") and path.format(**fill) in err, err
    assert file.read_text() == "" and "macro_f1" not in captured.out


# (subcommand, bad flag values, the flag the error must name)
_BAD_FLAG_VALUES = [
    ("flops", ["--l-min", "2000", "--l-max", "1000"], "--l-max"),
    ("flops", ["--l-step", "0"], "--l-step"),
    ("flops", ["--channels", "-1"], "--channels"),
    ("flops", ["--windows", "0"], "--windows"),
    ("flops", ["--windows", ","], "--windows"),
    ("flops", ["--windows", "5,x"], "--windows"),
    ("flops", ["--l-min", "0", "--l-max", "0"], "--l-min"),
    ("synth", ["--noise-std", "-1"], "--noise-std"),
    ("synth", ["--noise-std", "nan"], "--noise-std"),
    ("synth", ["--seed", "-1"], "--seed"),
    ("synth", ["--records", "0"], "--records"),
    ("synth", ["--n-leads", "0"], "--n-leads"),
    ("synth", ["--length", "0"], "--length"),
    ("gradcheck", ["--step", "0"], "--step"),
    ("gradcheck", ["--step", "nan"], "--step"),
    ("gradcheck", ["--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize("subcommand,flags,flag", _BAD_FLAG_VALUES,
                         ids=[c[0] + "".join(c[1]) for c in _BAD_FLAG_VALUES])
def test_bad_flag_values_exit_2_naming_the_flag_and_write_nothing(tmp_path, capsys,
                                                                  subcommand, flags, flag):
    out = {"flops": ["--out", str(tmp_path / "out" / "sweep.csv")],
           "synth": ["--out-dir", str(tmp_path / "out"), "--records", "10"]}
    # The case's flags come last, so a default here never overrides them.
    assert main([subcommand, *out.get(subcommand, []), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{subcommand}: config error: {flag} must be"), err
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_rejected(synth_dir):
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--bogus"])
    assert exc.value.code != 0


def test_error_messages_name_the_subcommand(tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "missing"),
                 "--signals", str(tmp_path / "s.bin"), "--labels", str(tmp_path / "l.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("eval:")


def _replaced(name, data):
    """A store edit giving parameter ``name`` the value ``data``, or dropping
    it when ``data`` is None."""
    def edit(store):
        return ParamStore((n, data if n == name else t.data) for n, t in store.items()
                          if n != name or data is not None)
    return edit


def _manifest_entry(name, **fields):
    def edit(manifest):
        manifest["params"][name].update(fields)
        return json.dumps(manifest)
    return edit


# (case, store edit, manifest edit, text the error must contain)
_MALFORMED_CHECKPOINTS = [
    ("embed-shape", _replaced("embed.W", np.zeros((10, 9))), None, "embed.W"),
    ("head-shape", _replaced("branch1.head.W", np.zeros((8, 3))), None, "branch1.head.W"),
    ("attn-shape", _replaced("branch0.attn.Wq", np.zeros((8, 4))), None, "branch0.attn.Wq"),
    ("missing", _replaced("fusion.W", None), None, "fusion.W"),
    ("extra", lambda s: ParamStore([*((n, t.data) for n, t in s.items()),
                                    ("branch9.head.W", np.zeros(2))]), None, "branch9.head.W"),
    ("f4", None, _manifest_entry("branch0.mlp.b1", dtype="<f4"), "branch0.mlp.b1"),
    ("object", None, _manifest_entry("embed.b", dtype="|O"), "embed.b"),
    ("nbytes", None, _manifest_entry("embed.b", nbytes=8), "embed.b"),
    ("truncated-manifest", None, lambda m: json.dumps(m)[:200], "malformed checkpoint manifest"),
    ("blob-hash", None, lambda m: json.dumps(dict(m, sha256="0" * 64)), "bad.bin does not match"),
]


@pytest.mark.parametrize("edit_store,edit_manifest,needle",
                         [c[1:] for c in _MALFORMED_CHECKPOINTS],
                         ids=[c[0] for c in _MALFORMED_CHECKPOINTS])
def test_malformed_checkpoint_exits_3_naming_the_parameter(synth_dir, trained_dir, tmp_path,
                                                          capsys, edit_store, edit_manifest,
                                                          needle):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    if edit_store:
        store = edit_store(store)
    manifest_path, _ = save_checkpoint(store, tmp_path / "bad", config=config)
    if edit_manifest:
        manifest_path.write_text(edit_manifest(json.loads(manifest_path.read_text())))
    data = ["--signals", str(synth_dir / "signals.bin"), "--labels", str(synth_dir / "labels.csv")]
    for argv in (["eval", *data], ["attn", *data, "--out-dir", str(tmp_path / "viz")]):
        assert main([argv[0], "--checkpoint", str(tmp_path / "bad"), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: data error:") and needle in err


# (case, manifest edit, exit code, text the error must contain)
_MALFORMED_MANIFEST_VALUES = [
    ("params-list", lambda m: m.update(params=[]), 3, "'params' is not a JSON object"),
    ("string-shape", lambda m: m["params"]["embed.b"].update(shape="8"), 3, "embed.b"),
    ("config-list", lambda m: m.update(config=[]), 3, "'config' is not a JSON object"),
    ("negative-offset", lambda m: m["params"]["branch0.mlp.b1"].update(offset=-8), 3,
     "branch0.mlp.b1"),
    ("overlapping-offset", lambda m: m["params"]["embed.b"].update(offset=8), 3, "embed.b"),
    ("gap-offset", lambda m: m["params"]["branch0.attn.bias"].update(
        offset=m["params"]["branch0.attn.bias"]["offset"] + 8), 3, "branch0.attn.bias"),
    ("windows-string", lambda m: m["config"]["model"].update(windows="5,10,20"), 2,
     "'windows': '5,10,20'"),
]


@pytest.mark.parametrize("edit,code,needle", [c[1:] for c in _MALFORMED_MANIFEST_VALUES],
                         ids=[c[0] for c in _MALFORMED_MANIFEST_VALUES])
def test_malformed_manifest_values_exit_cleanly_naming_the_entry(synth_dir, trained_dir,
                                                                 tmp_path, capsys, edit, code,
                                                                 needle):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    manifest_path, _ = save_checkpoint(store, tmp_path / "bad", config=config)
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    kind = {2: "config error", 3: "data error"}[code]
    data = ["--signals", str(synth_dir / "signals.bin"), "--labels", str(synth_dir / "labels.csv")]
    for argv in (["eval", *data], ["attn", *data, "--out-dir", str(tmp_path / "viz")]):
        assert main([argv[0], "--checkpoint", str(tmp_path / "bad"), *argv[1:]]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: {kind}:") and needle in err, err


@pytest.mark.parametrize("missing", ["P", "C"])
def test_train_without_a_required_model_key_exits_2(synth_dir, tmp_path, capsys, missing):
    settings = [arg for pair in zip(TINY_SETTINGS[::2], TINY_SETTINGS[1::2])
                if not pair[1].startswith(f"{missing}=") for arg in pair]
    code = main(["train", "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv"), "--out-dir", str(tmp_path),
                 "--quiet", *settings])
    assert code == 2
    assert f"missing required model config keys: ['{missing}']" in capsys.readouterr().err


def test_checkpoint_config_without_a_required_key_exits_2(synth_dir, trained_dir, tmp_path,
                                                           capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    del config["model"]["P"]
    save_checkpoint(store, tmp_path / "nop", config=config)
    code = main(["eval", "--checkpoint", str(tmp_path / "nop"),
                 "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv")])
    assert code == 2
    assert "eval: config error: missing required model config keys: ['P']" in (
        capsys.readouterr().err)


def _eval_exit(synth_dir, checkpoint):
    return main(["eval", "--checkpoint", str(checkpoint),
                 "--signals", str(synth_dir / "signals.bin"),
                 "--labels", str(synth_dir / "labels.csv")])


def test_non_utf8_checkpoint_manifest_exits_3(synth_dir, trained_dir, tmp_path, capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    manifest_path, _ = save_checkpoint(store, tmp_path / "bad", config=config)
    manifest_path.write_bytes(b"\xff" + manifest_path.read_bytes())
    assert _eval_exit(synth_dir, tmp_path / "bad") == 3
    err = capsys.readouterr().err
    assert err.startswith("eval: data error: malformed checkpoint manifest"), err


def test_checkpoint_config_with_zero_heads_exits_2(synth_dir, trained_dir, tmp_path, capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    config["model"]["heads"] = 0
    save_checkpoint(store, tmp_path / "noheads", config=config)
    assert _eval_exit(synth_dir, tmp_path / "noheads") == 2
    assert "eval: config error: heads must be >= 1, got 0" in capsys.readouterr().err


def test_checkpoint_config_of_huge_width_exits_3_naming_the_parameter(synth_dir, trained_dir,
                                                                     tmp_path, capsys):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    config["model"].update(C=2**40, heads=2)  # 80 TiB of parameters if allocated
    save_checkpoint(store, tmp_path / "wide", config=config)
    assert _eval_exit(synth_dir, tmp_path / "wide") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"eval: data error: checkpoint {tmp_path / 'wide'}: parameter embed.W "
                          f"has shape (10, 8), the model config needs (10, {2**40})"), err


@pytest.mark.parametrize("which,needle", [(1, "unreadable checkpoint blob"),
                                          (0, "malformed checkpoint manifest")])
def test_unreadable_checkpoint_file_exits_3(synth_dir, trained_dir, tmp_path, capsys, which,
                                            needle):
    store, config = load_checkpoint(trained_dir / "checkpoint")
    path = save_checkpoint(store, tmp_path / "bad", config=config)[which]
    path.unlink()
    path.mkdir()  # a directory in the file's place
    assert _eval_exit(synth_dir, tmp_path / "bad") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"eval: data error: {needle} {path}"), err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone adds about a second to every command's start-up.
    code = "import sys, mswecg.cli; sys.exit('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(Path(mswecg.__file__).parents[1])})
    assert done.returncode == 0


def test_a_command_freezes_the_objects_the_imports_built_once(tmp_path):
    # Frozen objects are skipped by every collection, the one at exit included.
    code = ("import gc, sys\n"
            "from mswecg.cli import main\n"
            "assert gc.get_freeze_count() == 0\n"
            "counts = []\n"
            "for name in ('a.csv', 'b.csv'):\n"
            "    assert main(['flops', '--l-max', '1000', '--out', sys.argv[1] + name]) == 0\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(*counts)\n")
    done = subprocess.run([sys.executable, "-c", code, f"{tmp_path}/"], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(mswecg.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split()[-2:])
    assert first > 0 and second == first


# ---------------------------------------------------------------------------
# Parser fuzzing: malformed settings and checkpoints fail with the package's
# own errors (exit 2 or 3), never with another exception.

_CLEAN_ERRORS = (ConfigError, AdmissibilityError, DimensionError, DataError)
_KEYS = sorted({*MODEL_KEYS, *TRAIN_KEYS})
_HEADER = DatasetHeader(n_leads=2, L=200, K=3, class_names=("a", "b", "c"))
_RAW_VALUES = (st.text(max_size=12)
               | st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,2})?(e-?[0-9])?", fullmatch=True)
               | st.sampled_from(["nan", "inf", "-inf", "1e999", "5,10,20", "0", "1_0", " 8 "]))
_ANY_VALUE = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
              | st.text(max_size=6) | st.lists(st.integers(-3, 50), max_size=4))


def _resolve(settings):
    try:
        resolve_configs(settings, _HEADER)
    except _CLEAN_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), _RAW_VALUES,
                              max_size=8))
def test_fuzzed_setting_text_fails_only_with_config_errors(values):
    try:
        typed = _typed(values)
    except ConfigError:
        return
    _resolve(typed)


@settings(max_examples=300, deadline=None)
@given(settings=st.dictionaries(st.sampled_from(_KEYS), _ANY_VALUE, max_size=8))
def test_fuzzed_setting_values_fail_only_with_config_errors(settings):
    _resolve(settings)


def _paths(node, prefix=()):
    """Every key path into a JSON object tree, parents before children."""
    for key, child in node.items():
        yield (*prefix, key)
        if isinstance(child, dict):
            yield from _paths(child, (*prefix, key))


# Huge integers reach the model config too: its shapes are compared before
# anything is allocated for it.
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 64)
                     | st.integers(-2**70, 2**70) | st.floats()
                     | st.text(max_size=6),
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                     max_leaves=6)


@st.composite
def _wide_model(draw, model):
    """``model`` with a valid but wide config: C in [2**30, 2**40] and large K
    and mlp_ratio, so building its parameters would exhaust memory."""
    heads = draw(st.integers(1, 64))
    width = heads * draw(st.integers(-(-2**30 // heads), 2**40 // heads))
    return dict(model, C=width, heads=heads, K=draw(st.integers(2**20, 2**40)),
                mlp_ratio=draw(st.integers(2**10, 2**30)))


@st.composite
def _manifest_edits(draw, manifest):
    """(edited manifest, how many bytes of the blob to keep or None)."""
    m = json.loads(json.dumps(manifest))
    paths = list(_paths(m))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(paths))
        node = m
        for p in parents:
            node = node.get(p) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        kind = draw(st.sampled_from(["json", "huge", "delete", "flatten", "hash", "model"]))
        if kind == "model" and isinstance(m.get("config"), dict):
            m["config"]["model"] = draw(_wide_model(manifest["config"]["model"]))
        elif kind == "json":
            node[key] = draw(_JSON)
        elif kind == "huge":
            node[key] = draw(st.integers(-2**70, 2**70))
        elif kind == "delete":
            node.pop(key, None)
        elif kind == "flatten" and isinstance(node.get(key), dict) and "nbytes" in node[key]:
            node[key]["shape"] = [node[key]["nbytes"] // 8]  # right bytes, wrong shape
        elif kind == "hash":
            m["sha256"] = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    keep = draw(st.none() | st.integers(0, 4096))
    return m, keep


@pytest.fixture(scope="module")
def fuzz_base(trained_dir, tmp_path_factory):
    manifest_path, blob_path = (trained_dir / "checkpoint.json", trained_dir / "checkpoint.bin")
    return (json.loads(manifest_path.read_text()), blob_path.read_bytes(),
            tmp_path_factory.mktemp("fuzz") / "checkpoint")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoints_fail_only_with_config_or_data_errors(fuzz_base, data):
    manifest, blob, base = fuzz_base
    edited, keep = data.draw(_manifest_edits(manifest))
    if data.draw(st.booleans()):
        edited.pop("sha256", None)  # let a torn blob reach the entry checks
    manifest_path, blob_path = base.with_name("checkpoint.json"), base.with_name("checkpoint.bin")
    manifest_path.write_text(json.dumps(edited))
    blob_path.write_bytes(blob if keep is None else blob[:keep])
    try:
        load_model(base)
    except _CLEAN_ERRORS:
        pass
