import hashlib
import json
import os

import numpy as np
import pytest

from mswecg.config import MswConfig
from mswecg.errors import DataError
from mswecg.params import (
    ParamStore,
    init_params,
    load_checkpoint,
    save_checkpoint,
    truncated_normal,
)


def tiny_cfg():
    return MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3)


def test_init_has_every_learnable_exactly_once():
    cfg = tiny_cfg()
    store = init_params(cfg, seed=0)
    names = store.names()
    assert len(names) == len(set(names))
    assert "embed.W" in store and "fusion.W" in store
    for i, M in enumerate(cfg.windows):
        assert store[f"branch{i}.attn.bias"].shape == (cfg.heads, 2 * M - 1)
        assert store[f"branch{i}.head.W"].shape == ((cfg.tokens // M) * cfg.C, cfg.K)
    assert store["fusion.W"].shape == (cfg.n_branches * cfg.K, cfg.n_branches)
    assert np.array_equal(store["branch0.attn.bias"], 0.0 * store["branch0.attn.bias"])


def test_truncated_normal_bounds_and_determinism():
    a = truncated_normal(np.random.default_rng(4), (200, 50), std=0.02)
    b = truncated_normal(np.random.default_rng(4), (200, 50), std=0.02)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.04


def test_duplicate_name_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ParamStore([("w", np.zeros(2)), ("w", np.zeros(2))])


def assert_views_of_flat(store):
    """Every parameter is a view of ``store.flat``, back to back in store order,
    and ``items()`` pairs each name with an entry whose ``.data`` is that view."""
    start = store.flat.__array_interface__["data"][0]
    offset = 0
    for name in store.names():
        a = store[name]
        assert np.shares_memory(a, store.flat), name
        assert a.flags.c_contiguous, name
        assert a.__array_interface__["data"][0] == start + 8 * offset, name
        offset += a.size
    assert [n for n, _ in store.items()] == store.names()
    assert all(e.data is store[n] for n, e in store.items())
    assert offset == store.flat.size
    assert store.flat.dtype == np.float64 and store.flat.ndim == 1


def test_parameters_are_views_of_one_vector_after_init_copy_and_load(tmp_path):
    store = init_params(tiny_cfg(), seed=3)
    assert_views_of_flat(store)
    copied = store.copy()
    assert_views_of_flat(copied)
    assert not np.shares_memory(copied.flat, store.flat)
    assert copied.flat.tobytes() == store.flat.tobytes()
    save_checkpoint(store, tmp_path / "v")
    loaded, _ = load_checkpoint(tmp_path / "v")
    assert_views_of_flat(loaded)
    assert loaded.flat.tobytes() == store.flat.tobytes()
    store.flat[:] = 0.5  # an in-place update of the vector moves every parameter
    assert all((store[n] == 0.5).all() for n in store.names())


def test_checkpoint_blob_is_the_flat_vectors_bytes(tmp_path):
    store = init_params(tiny_cfg(), seed=4)
    _, blob_path = save_checkpoint(store, tmp_path / "b")
    assert blob_path.read_bytes() == store.flat.tobytes()


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = tiny_cfg()
    store = init_params(cfg, seed=1)
    base = tmp_path / "ckpt"
    save_checkpoint(store, base, config={"model": cfg.to_dict()})
    loaded, saved_cfg = load_checkpoint(base)
    assert loaded.names() == store.names()
    for name in store.names():
        assert store[name].tobytes() == loaded[name].tobytes()
    assert saved_cfg["model"]["windows"] == [2, 4]


def test_checkpoint_manifest_is_json_with_offsets(tmp_path):
    store = init_params(tiny_cfg(), seed=0)
    manifest_path, blob_path = save_checkpoint(store, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    total = sum(meta["nbytes"] for meta in manifest["params"].values())
    assert total == blob_path.stat().st_size
    offsets = [meta["offset"] for meta in manifest["params"].values()]
    assert offsets == sorted(offsets)


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "nope")


def test_manifest_records_the_blob_hash_and_loads_without_it(tmp_path):
    store = init_params(tiny_cfg(), seed=0)
    manifest_path, blob_path = save_checkpoint(store, tmp_path / "h")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["sha256"] == hashlib.sha256(blob_path.read_bytes()).hexdigest()
    del manifest["sha256"]  # a manifest written before the hash was stored
    manifest_path.write_text(json.dumps(manifest))
    loaded, _ = load_checkpoint(tmp_path / "h")
    assert all(store[n].tobytes() == loaded[n].tobytes() for n in store.names())


def test_blob_longer_than_its_entries_is_rejected(tmp_path):
    manifest_path, blob_path = save_checkpoint(init_params(tiny_cfg(), seed=0), tmp_path / "x")
    blob = blob_path.read_bytes() + bytes(8)
    blob_path.write_bytes(blob)
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"] = hashlib.sha256(blob).hexdigest()  # the hash alone cannot catch it
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=rf"x\.bin holds {len(blob)} bytes, its entries "
                                        rf"{len(blob) - 8}"):
        load_checkpoint(tmp_path / "x")


def _fail_replace(monkeypatch, on_suffix):
    """Make ``os.replace`` fail when it would move a file onto a ``*<on_suffix>`` path."""
    real = os.replace

    def replace(src, dst):
        if str(dst).endswith(on_suffix):
            raise OSError(f"simulated crash before replacing {dst}")
        real(src, dst)

    monkeypatch.setattr("mswecg.params.os.replace", replace)


def test_save_torn_after_the_blob_is_replaced_loads_as_a_hash_mismatch(tmp_path, monkeypatch):
    base = tmp_path / "ckpt"
    save_checkpoint(init_params(tiny_cfg(), seed=1), base)
    _fail_replace(monkeypatch, ".json")
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(init_params(tiny_cfg(), seed=2), base)
    monkeypatch.undo()
    with pytest.raises(DataError, match=r"ckpt\.bin does not match the sha256 in .*ckpt\.json"):
        load_checkpoint(base)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]


def test_save_failing_before_any_replace_leaves_the_former_checkpoint(tmp_path, monkeypatch):
    base = tmp_path / "ckpt"
    store = init_params(tiny_cfg(), seed=1)
    paths = save_checkpoint(store, base)
    before = [p.read_bytes() for p in paths]
    _fail_replace(monkeypatch, ".bin")
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(init_params(tiny_cfg(), seed=2), base)
    assert [p.read_bytes() for p in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]
    loaded, _ = load_checkpoint(base)
    assert all(store[n].tobytes() == loaded[n].tobytes() for n in store.names())
