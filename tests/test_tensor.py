"""``mswecg.tensor``'s step backward and MAC counting, and the value,
finite-difference and property checks of the test tape and the primitive
reference ops in ``util`` (``ref`` below) that the model's rules are
compared against."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswecg import tensor as tc
from mswecg.config import MswConfig
from mswecg.errors import DimensionError, GraphError
from mswecg.model import forward
from mswecg.params import init_params
from mswecg.train import bce_loss
import util as ref
from util import finite_diff_check, mlp_sublayer, window_attention


def test_matmul_identity():
    eye = ref.Tensor(np.eye(2))
    a = ref.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ref.matmul(eye, a).data, a.data)


def test_matmul_hand_case():
    out = ref.matmul(ref.Tensor([[1.0, 2.0]]), ref.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ref.matmul(ref.Tensor(np.zeros((2, 3))), ref.Tensor(np.zeros((2, 2))))


def test_matmul_grad_of_sum_is_ones_bt():
    rng = np.random.default_rng(3)
    a = ref.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = ref.Tensor(rng.normal(size=(5, 3)))
    ref.backward(ref.sum(ref.matmul(a, b)))
    expected = np.ones((4, 3)) @ b.data.T
    assert np.allclose(a.grad, expected, atol=1e-12)
    assert finite_diff_check(lambda x: ref.matmul(x, ref.Tensor(b.data)), [(4, 5)], seed=3) < 1e-4


def test_softmax_symmetry_and_ratio():
    assert np.allclose(ref.softmax_lastdim(ref.Tensor([0.0, 0.0])).data, [0.5, 0.5])
    out = ref.softmax_lastdim(ref.Tensor([0.0, math.log(3.0)])).data
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_overflow_safe():
    out = ref.softmax_lastdim(ref.Tensor([1000.0, 0.0])).data
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ref.softmax_lastdim(ref.Tensor(rng.normal(size=(7, 5)) * 30)).data
    assert np.all(out >= 0) and np.all(out <= 1)
    assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12


def test_softmax_empty_lastdim_rejected():
    with pytest.raises(DimensionError):
        ref.softmax_lastdim(ref.Tensor(np.zeros((3, 0))))


def test_backward_sum_gives_ones():
    x = ref.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ref.backward(ref.sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = ref.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ref.backward(ref.scale(ref.sum(ref.mul(x, x)), 0.5))
    assert np.allclose(x.grad, x.data)


def test_backward_twice_is_an_error():
    # A training step's rules run once, last to first: running them empties the list.
    cfg = MswConfig(L=40, n_leads=2, P=5, C=8, heads=2, windows=(2, 4), K=3, attn_dropout=0.0)
    params = init_params(cfg, seed=0)
    sig = np.random.default_rng(0).normal(size=(2, cfg.n_leads, cfg.L))
    res = forward(sig, cfg, params, train=True)
    res.rules.append(bce_loss(res.probs, np.ones((2, cfg.K)))[1])
    grad = np.full_like(params.flat, np.nan)
    tc.backward(res.rules, params.views(grad))
    assert res.rules == [] and np.isfinite(grad).all()
    with pytest.raises(GraphError, match="already ran"):
        tc.backward(res.rules, params.views(grad))


def test_concat_shape_error():
    with pytest.raises(DimensionError):
        ref.concat([ref.Tensor(np.zeros((2, 3))), ref.Tensor(np.zeros((3, 3)))], axis=1)


def test_mac_counter_counts_matmul_shapes():
    rng = np.random.default_rng(0)
    pairs = [(rng.normal(size=(3, 4)), rng.normal(size=(4, 5))),
             (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5)))]
    counters = [tc.MacCounter(), tc.MacCounter()]
    for counter, (a, b) in zip(counters, pairs):
        with counter.active():
            assert np.array_equal(tc.matmul(a, b), a @ b)
    assert [c.total for c in counters] == [3 * 4 * 5, 2 * 3 * 4 * 5]
    # Nothing is counted outside the active context.
    tc.matmul(*pairs[0])
    assert [c.total for c in counters] == [60, 120]


_GRAD_CASES = [
    ("add_broadcast", lambda a, b: ref.add(a, b), [(3, 4), (4,)]),
    ("sub", lambda a, b: ref.sub(a, b), [(3, 4), (3, 4)]),
    ("mul_broadcast", lambda a, b: ref.mul(a, b), [(2, 3, 1), (3, 4)]),
    ("scale", lambda x: ref.scale(x, -1.7), [(3, 4)]),
    ("matmul", lambda a, b: ref.matmul(a, b), [(3, 4), (4, 2)]),
    ("matmul_stacked", lambda a, b: ref.matmul(a, b), [(2, 3, 4), (4, 2)]),
    ("linear", lambda x, w, b: ref.linear(x, w, b), [(3, 4), (4, 2), (2,)]),
    ("concat", lambda a, b: ref.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    ("sum_axis", lambda x: ref.sum(x, axis=1), [(3, 4, 2)]),
    ("mean_axis", lambda x: ref.mean(x, axis=-2), [(3, 4, 2)]),
    ("mean_all", lambda x: ref.reshape(ref.mean(x), (1, 1)), [(3, 4)]),
    ("reshape", lambda x: ref.reshape(x, (6, 2)), [(3, 4)]),
    ("transpose", lambda x: ref.transpose(x, (2, 0, 1)), [(2, 3, 4)]),
    ("softmax", lambda x: ref.softmax_lastdim(x), [(4, 6)]),
    ("sigmoid", lambda x: ref.sigmoid(x), [(4, 5)]),
    ("log_clip", lambda x: ref.log(ref.clip(ref.sigmoid(x), 1e-12, 1 - 1e-12)), [(4, 5)]),
]


@pytest.mark.parametrize("name,build,shapes", _GRAD_CASES, ids=[c[0] for c in _GRAD_CASES])
def test_gradients_match_finite_differences(name, build, shapes):
    assert finite_diff_check(build, shapes, seed=11) < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=6),
    inner=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_matmul_gradient_property(rows, cols, inner, seed):
    err = finite_diff_check(lambda a, b: ref.matmul(a, b), [(rows, inner), (inner, cols)],
                            seed=seed)
    assert err < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_softmax_rows_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    out = ref.softmax_lastdim(ref.Tensor(rng.normal(size=(rows, cols)) * 50)).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_mac_counter_is_thread_local():
    import threading

    counter = tc.MacCounter()
    a = ref.Tensor(np.ones((3, 4)))
    b = ref.Tensor(np.ones((4, 5)))

    def other_thread():
        # No counter active on this thread: nothing is recorded.
        ref.matmul(a, b)

    with counter.active():
        ref.matmul(a, b)
        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
    assert counter.total == 3 * 4 * 5


def test_mac_counter_adds_exactly_from_threads_that_share_its_context():
    import contextvars
    import threading

    counter = tc.MacCounter()

    def add_many():
        for _ in range(20_000):
            tc.count_macs(3)

    with counter.active():
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(add_many,))
                   for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside an unlocked add too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counter.total == 4 * 20_000 * 3


def test_forward_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(1)
    x = ref.Tensor(rng.normal(size=(4, 6)) * 500)
    for out in (
        ref.softmax_lastdim(x),
        ref.sigmoid(x),
    ):
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# Layer norm, GELU and dropout exist only inside the fused sublayer ops of
# `mswecg.model`; their value and edge-case checks run through those ops.


def _layernorm(x, gamma, beta):
    """LN(x) read off the attention sublayer: with one-token windows, one
    head and identity Wv and Wz it returns x + LN(x)."""
    x = np.asarray(x, dtype=np.float64)
    eye = ref.Tensor(np.eye(x.shape[-1]))
    out, _ = window_attention(ref.Tensor(x), gamma, beta, eye, eye, eye, eye,
                              ref.Tensor(np.zeros((1, 1))), 1, 1)
    return out.data - x


def _gelu(v: float) -> float:
    """GELU(v) read off the MLP sublayer at width 1, where LN(x) is the LN
    bias and every other weight is the identity or zero."""
    one, zero = ref.Tensor(np.ones((1, 1))), ref.Tensor(np.zeros(1))
    return mlp_sublayer(ref.Tensor(np.zeros((1, 1))), ref.Tensor(np.ones(1)), ref.Tensor([v]),
                        one, zero, one, zero).data.item()


def _dropout_ones(shape, p, train, uniforms=None):
    """Dropout applied to all-one attention: one-token windows of a width-1
    signal whose LN bias is 1, so the sublayer adds exactly the mask."""
    one, gain = ref.Tensor(np.ones((1, 1))), ref.Tensor(np.ones(1))
    out, _ = window_attention(ref.Tensor(np.zeros((*shape, 1))), gain, gain, one, one, one, one,
                              one, 1, 1, attn_dropout=p, train=train, uniforms=uniforms)
    return out.data[..., 0]


def test_layernorm_zero_variance_row():
    out = _layernorm([[1.0, 1.0, 1.0]], ref.Tensor(np.ones(3)), ref.Tensor(np.zeros(3)))
    assert np.allclose(out, 0.0)


def test_layernorm_two_point_row():
    out = _layernorm([[1.0, 3.0]], ref.Tensor(np.ones(2)), ref.Tensor(np.zeros(2)))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-3)


def test_layernorm_recomputation_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 8)) * 4 + 1
    eps = 1e-5
    out = _layernorm(x, ref.Tensor(np.ones(8)), ref.Tensor(np.zeros(8)))
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    assert np.allclose(out, (x - mu) / np.sqrt(var + eps), atol=1e-12)
    # eps-corrected rows: mean 0, variance var/(var+eps)
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.var(axis=1) - var[:, 0] / (var[:, 0] + eps)).max() < 1e-6


def test_layernorm_width_mismatch():
    with pytest.raises(DimensionError):
        _layernorm(np.zeros((2, 4)), ref.Tensor(np.ones(3)), ref.Tensor(np.zeros(3)))
    w = ref.Tensor(np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        mlp_sublayer(ref.Tensor(np.zeros((2, 4))), ref.Tensor(np.ones(3)), ref.Tensor(np.zeros(3)),
                     w, ref.Tensor(np.zeros(4)), w, ref.Tensor(np.zeros(4)))


def test_gelu_values():
    assert _gelu(0.0) == 0.0
    assert _gelu(30.0) == pytest.approx(30.0)
    assert _gelu(-30.0) == pytest.approx(0.0, abs=1e-12)
    # x * Phi(x) at x = 1, against a high-precision normal CDF
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert _gelu(1.0) == pytest.approx(1.0 * phi1, abs=1e-15)
    assert _gelu(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_dropout_eval_is_identity():
    ones = np.ones((3, 4))
    assert np.array_equal(_dropout_ones((3, 4), 0.5, False), ones)
    assert np.array_equal(_dropout_ones((3, 4), 0.0, True), ones)


def test_dropout_deterministic_and_inverted():
    draws = np.random.default_rng(9).random((200, 50, 1, 1, 1))  # (records, windows, heads, M, M)
    out1 = _dropout_ones((200, 50), 0.25, True, draws)
    out2 = _dropout_ones((200, 50), 0.25, True, draws.copy())
    assert np.array_equal(out1, out2)
    survivors = out1[out1 != 0]
    assert np.allclose(survivors, 1.0 / 0.75)
    assert abs((out1 != 0).mean() - 0.75) < 0.02


def test_dropout_needs_uniforms_of_the_maps_shape_in_train():
    with pytest.raises(ValueError, match=r"uniforms .* shape \(1, 3, 1, 1, 1\), got none"):
        _dropout_ones((3,), 0.5, True)
    with pytest.raises(ValueError, match=r"shape \(1, 3, 1, 1, 1\), got \(3,\)"):
        _dropout_ones((3,), 0.5, True, np.zeros(3))
