"""BENCHMARK.json must describe what run.py and spans.py actually report."""

import json
import re
from pathlib import Path

import run
import spans

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_workloads():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_end_to_end_metrics_match_the_runner():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_the_spans():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spans.layer_specs()]


def test_names_and_units_are_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
