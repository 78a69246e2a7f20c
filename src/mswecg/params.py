"""Named learnable parameters, their initialization, and checkpoint I/O.

Every parameter lives in one float64 vector, ``ParamStore.flat``, in store
order.  Checkpoints are a JSON manifest (name -> shape/dtype/byte offset, the
blob's sha256, plus the resolved run config) next to a blob holding that
vector's little-endian bytes.  The round trip is bitwise exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import MswConfig
from .errors import DataError

_DTYPE = "<f8"


class ParamStore:
    """Ordered name -> parameter array map; names are stable across save/load.

    The ``(name, array)`` pairs' values are copied into one vector, ``flat``,
    in pair order; ``store[name]`` is a reshaped view of its slice.
    :meth:`views` lays any vector of ``flat``'s size out the same way, which
    is how a training step's gradient vector gets its named slots.
    """

    def __init__(self, pairs=()):
        arrays = [(name, np.asarray(data, dtype=np.float64)) for name, data in pairs]
        self._shapes: dict[str, tuple[int, ...]] = {}
        for name, a in arrays:
            if name in self._shapes:
                raise ValueError(f"duplicate parameter name: {name}")
            self._shapes[name] = a.shape
        self.flat = np.empty(sum(a.size for _, a in arrays))
        self._params = self.views(self.flat)
        for name, a in arrays:
            self._params[name][...] = a

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> the reshaped view of ``vec``'s slice that ``flat`` gives that parameter."""
        out, offset = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            out[name] = vec[offset : offset + size].reshape(shape)
            offset += size
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        """``(name, entry)`` pairs in store order, ``entry.data`` the parameter's array.

        The pairs keep the ``.data`` form that ``perfbench/run.py`` reads off
        a loaded checkpoint; code in this package indexes the store instead.
        """
        return [(name, SimpleNamespace(data=a)) for name, a in self._params.items()]

    def copy(self) -> "ParamStore":
        return ParamStore(self._params.items())


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal draws with |x| > 2*std resampled until in range."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def param_shapes(cfg: MswConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in store order; nothing is allocated."""
    C, T, K = cfg.C, cfg.tokens, cfg.K
    hidden = cfg.mlp_ratio * C
    shapes = [("embed.W", (cfg.patch_width, C)), ("embed.b", (C,))]
    for i, M in enumerate(cfg.windows):
        b = f"branch{i}"
        shapes += [(f"{b}.ln1.gamma", (C,)), (f"{b}.ln1.beta", (C,))]
        shapes += [(f"{b}.attn.{w}", (C, C)) for w in ("Wq", "Wk", "Wv", "Wz")]
        shapes += [
            (f"{b}.attn.bias", (cfg.heads, 2 * M - 1)),
            (f"{b}.ln2.gamma", (C,)), (f"{b}.ln2.beta", (C,)),
            (f"{b}.mlp.W1", (C, hidden)), (f"{b}.mlp.b1", (hidden,)),
            (f"{b}.mlp.W2", (hidden, C)), (f"{b}.mlp.b2", (C,)),
            (f"{b}.head.W", ((T // M) * C, K)), (f"{b}.head.b", (K,)),
        ]
    # Fusion mixer is bias-free: all-zero weights give exactly uniform mixing.
    shapes.append(("fusion.W", (cfg.n_branches * K, cfg.n_branches)))
    return shapes


def init_params(cfg: MswConfig, seed: int = 0) -> ParamStore:
    """Fresh parameters: truncated-normal(0.02) weights (names ``W...``), unit
    LayerNorm gains, zero biases.

    The weights are drawn in store order.  The relative-position tables
    start at zero, so attention begins unbiased.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for name, shape in param_shapes(cfg):
        kind = name.rsplit(".", 1)[1]
        if kind.startswith("W"):
            pairs.append((name, truncated_normal(rng, shape)))
        else:
            pairs.append((name, np.ones(shape) if kind == "gamma" else np.zeros(shape)))
    return ParamStore(pairs)


def checkpoint_paths(base) -> tuple[Path, Path]:
    base = Path(base)
    return base.with_name(base.name + ".json"), base.with_name(base.name + ".bin")


def _replace_with(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then move it onto ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(store: ParamStore, base, config: dict | None = None) -> tuple[Path, Path]:
    """Write ``<base>.json`` (manifest) and ``<base>.bin`` (``store.flat``'s bytes).

    Each file is written under a temporary name and moved into place, the
    blob first, so a crash leaves each file whole: either the former
    checkpoint, or a former manifest beside the new blob, which
    :func:`load_checkpoint` then rejects by the blob's sha256.  Nothing is
    synced to disk.
    """
    manifest_path, blob_path = checkpoint_paths(base)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    entries = {}
    offset = 0
    for name in store.names():
        a = store[name]
        entries[name] = {"shape": list(a.shape), "dtype": _DTYPE,
                         "offset": offset, "nbytes": a.nbytes}
        offset += a.nbytes
    blob = store.flat.astype(_DTYPE, copy=False).tobytes()
    manifest = {"config": config or {}, "params": entries,
                "sha256": hashlib.sha256(blob).hexdigest()}
    _replace_with(blob_path, blob)
    _replace_with(manifest_path, json.dumps(manifest, indent=1).encode())
    return manifest_path, blob_path


def load_checkpoint(base) -> tuple[ParamStore, dict]:
    """Read a checkpoint; raises :class:`DataError` for a malformed one.

    Only float64 entries whose byte count matches their shape, laid back to back
    over the whole blob as :func:`save_checkpoint` lays them, are accepted, from
    a blob whose sha256 matches the manifest's where it records one.
    """
    manifest_path, blob_path = checkpoint_paths(base)
    if not manifest_path.exists() or not blob_path.exists():
        raise DataError(f"checkpoint not found at {manifest_path} / {blob_path}")
    try:
        blob = blob_path.read_bytes()
    except OSError as exc:
        raise DataError(f"unreadable checkpoint blob {blob_path}: {exc}") from exc
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed checkpoint manifest {manifest_path}: "
                        f"{type(exc).__name__}: {exc}") from exc
    for key, default in (("params", None), ("config", {})):
        if not isinstance(manifest, dict) or not isinstance(manifest.get(key, default), dict):
            raise DataError(f"malformed checkpoint manifest {manifest_path}: "
                            f"{key!r} is not a JSON object")
    digest = manifest.get("sha256")
    if digest is not None and digest != hashlib.sha256(blob).hexdigest():
        raise DataError(f"checkpoint blob {blob_path} does not match the sha256 in "
                        f"{manifest_path}; the two files are from different saves")
    pairs, end = [], 0
    for name, meta in manifest["params"].items():
        shape, start, nbytes = (meta.get(k) if isinstance(meta, dict) else None
                                for k in ("shape", "offset", "nbytes"))
        counts = [start, nbytes, *shape] if isinstance(shape, list) else [None]
        if (not all(type(c) is int and c >= 0 for c in counts) or meta.get("dtype") != _DTYPE
                or nbytes != 8 * math.prod(shape)):
            raise DataError(f"checkpoint entry {name} is not {_DTYPE} with a non-negative "
                            f"offset and a byte count matching its shape: {meta!r}")
        if start != end or start + nbytes > len(blob):
            raise DataError(f"checkpoint entry {name} must take bytes {end} to {end + nbytes} "
                            f"of the {len(blob)}-byte blob, after the entries before it: {meta!r}")
        pairs.append((name, np.frombuffer(blob, _DTYPE, nbytes // 8, start).reshape(shape)))
        end += nbytes
    if end != len(blob):
        raise DataError(f"checkpoint blob {blob_path} holds {len(blob)} bytes, its entries {end}")
    return ParamStore(pairs), manifest.get("config", {})
