"""Model shape hyperparameters and their admissibility checks."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real

from .errors import AdmissibilityError, ConfigError


def default_heads(C: int) -> int:
    """Head count used when none is given: 8 at full width, 4 at desk scale."""
    return 8 if C >= 128 else 4


@dataclass(frozen=True)
class MswConfig:
    """All shape hyperparameters of the network.

    Validation happens at construction, before any compute: the patch length
    must divide the record length, and every window scale must divide the
    token count.
    """

    L: int
    n_leads: int
    P: int
    C: int
    K: int
    heads: int | None = None
    windows: tuple[int, ...] = (5, 10, 20)
    shift: int = 0
    attn_dropout: float = 0.2
    mlp_ratio: int = 4

    def __post_init__(self):
        kinds = {"heads": (Integral, type(None)), "attn_dropout": Real}  # the rest: integers
        windows = self.windows if isinstance(self.windows, (list, tuple)) else [None]
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        wrong = {k: v for k, v in values.items() if not all(
            isinstance(x, kinds.get(k, Integral)) for x in (windows if k == "windows" else [v]))}
        if wrong:
            raise ConfigError(f"model config values of the wrong type: {wrong}")
        object.__setattr__(self, "windows", tuple(int(m) for m in windows))
        if self.heads is None:
            object.__setattr__(self, "heads", default_heads(self.C))
        for name in ("L", "n_leads", "P", "C", "K", "heads", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.P > self.L or self.L % self.P != 0:
            raise AdmissibilityError(
                f"patch length {self.P} does not divide record length {self.L}"
            )
        T = self.L // self.P
        if not self.windows:
            raise ConfigError("at least one window scale is required")
        for M in self.windows:
            if M < 1 or T % M != 0:
                raise AdmissibilityError(
                    f"window scale {M} does not divide token count {T}"
                )
        if self.C % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide embedding width ({self.C})")
        if not 0 <= self.shift < min(self.windows):
            raise AdmissibilityError(
                f"shift {self.shift} must lie in [0, {min(self.windows)}) "
                f"for window scales {self.windows}"
            )
        if not 0.0 <= self.attn_dropout < 1.0:
            raise ConfigError(f"attn_dropout must be in [0, 1), got {self.attn_dropout}")

    @property
    def tokens(self) -> int:
        return self.L // self.P

    @property
    def patch_width(self) -> int:
        return self.n_leads * self.P

    @property
    def n_branches(self) -> int:
        return len(self.windows)

    def to_dict(self) -> dict:
        return {f.name: list(self.windows) if f.name == "windows" else getattr(self, f.name)
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "MswConfig":
        """Build from a plain dict, naming any unknown or missing key."""
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing required model config keys: {missing}")
        return cls(**d)
