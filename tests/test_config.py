import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswecg.config import MswConfig, default_heads
from mswecg.errors import AdmissibilityError, ConfigError


def make(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3, **kw):
    return MswConfig(L=L, n_leads=n_leads, P=P, C=C, heads=heads, windows=windows, K=K, **kw)


def test_defaults_and_derived():
    cfg = MswConfig(L=1000, n_leads=12, P=5, C=512, K=5, heads=8)
    assert cfg.tokens == 200
    assert cfg.patch_width == 60
    assert cfg.windows == (5, 10, 20)
    assert cfg.C // cfg.heads == 64
    assert cfg.shift == 0 and cfg.attn_dropout == 0.2 and cfg.mlp_ratio == 4


def test_default_head_resolution():
    assert default_heads(512) == 8
    assert default_heads(32) == 4
    assert MswConfig(L=40, n_leads=2, P=5, C=32, K=3, windows=(2,)).heads == 4


def test_patch_divisibility_rejected():
    with pytest.raises(AdmissibilityError, match="patch length"):
        make(L=41)


def test_window_divisibility_rejected():
    with pytest.raises(AdmissibilityError, match="window scale 7"):
        MswConfig(L=1000, n_leads=12, P=5, C=8, heads=2, windows=(7,), K=5)


def test_heads_must_divide_width():
    with pytest.raises(ConfigError, match="heads"):
        make(heads=3)


@pytest.mark.parametrize("heads", [0, -4])
def test_heads_must_be_at_least_one(heads):
    with pytest.raises(ConfigError, match=f"heads must be >= 1, got {heads}"):
        make(heads=heads)


def test_shift_range():
    cfg = make(shift=1)
    assert cfg.shift == 1
    with pytest.raises(AdmissibilityError, match="shift"):
        make(shift=2)  # min window is 2
    with pytest.raises(AdmissibilityError, match="shift"):
        make(shift=-1)


def test_dropout_range():
    with pytest.raises(ConfigError):
        make(attn_dropout=1.0)


def test_round_trip_dict():
    cfg = make(shift=1, attn_dropout=0.1)
    again = MswConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError, match="unknown"):
        MswConfig.from_dict({**cfg.to_dict(), "bogus": 1})


@settings(max_examples=120, deadline=None)
@given(T=st.integers(min_value=1, max_value=64), M=st.integers(min_value=1, max_value=64))
def test_window_admissibility_matches_divisibility(T, M):
    build = lambda: MswConfig(L=T, n_leads=1, P=1, C=4, heads=2, windows=(M,), K=2)
    if M <= T and T % M == 0:
        assert build().tokens == T
    else:
        with pytest.raises(AdmissibilityError):
            build()


def test_from_dict_names_missing_required_keys():
    d = make().to_dict()
    del d["P"], d["K"]
    with pytest.raises(ConfigError, match=r"missing required model config keys: \['P', 'K'\]"):
        MswConfig.from_dict(d)
