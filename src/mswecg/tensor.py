"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit and row-major.  Each differentiable operation records
itself on the tensor it produces; ``backward`` traces the records reachable
from a scalar loss into a :class:`Graph` and replays them in reverse
topological order, accumulating gradients into ``.grad`` buffers.

Tape lifetime: a record points at its inputs but never back at its output,
so the tape holds no reference cycle and a forward result is freed by
reference counting as soon as the caller drops it, whether or not
``backward`` ran.  ``backward`` frees the graph as it goes: once a record has
passed its gradient on, it drops its inputs and backward rule and clears its
output's ``.grad``, so only leaves keep ``.grad`` afterwards.  A consumed
record stays attached to its output and marked, so a second ``backward``
through it raises.  Inference runs under :func:`no_grad`, where no op is
recorded at all.

Tensors are treated as immutable once created, grad buffers excepted (the
optimizer mutates parameter data in place, but only between passes).  A graph
and its tensors belong to one thread for the duration of a forward/backward
pass; distinct graphs may run on distinct threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np
from scipy.special import expit

from .errors import DimensionError, GraphError

__all__ = [
    "Tensor",
    "Graph",
    "MacCounter",
    "count_macs",
    "no_grad",
    "recording",
    "apply_op",
    "backward",
    "tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "concat",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "clip",
    "log",
    "softmax_lastdim",
    "sigmoid",
]

# `sum` below is shadowed by the reduction op of the same name.
_py_sum = sum


class Tensor:
    """A dense float64 array plus the bookkeeping reverse-mode AD needs."""

    __slots__ = ("data", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op: OpRecord | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; scalars and arrays are wrapped as constant tensors.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


class OpRecord:
    """One recorded operation: its inputs and its backward rule.

    The record is reached only through its output's ``.op``; it holds no
    reference back to the output.
    """

    __slots__ = ("name", "inputs", "backward_fn", "consumed")

    def __init__(self, name, inputs, backward_fn):
        self.name = name
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn
        self.consumed = False


_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "mswecg_grad_enabled", default=True
)


@contextlib.contextmanager
def no_grad():
    """Record no ops in this context (and thread): outputs carry no ``.op``.

    Values, and the MACs a :class:`MacCounter` counts, are the same as with
    recording on.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def recording(inputs) -> bool:
    """Whether :func:`apply_op` would record an op on ``inputs`` here."""
    return _grad_enabled.get() and any(t.requires_grad for t in inputs)


def apply_op(name, inputs, out_data, backward_fn) -> Tensor:
    """Build the output tensor of a differentiable op.

    ``backward_fn(g)`` receives the output gradient and must return one
    gradient array (or None) per input, in order.  This is the extension
    point for ops with bespoke backward rules defined outside this module.
    """
    out = Tensor(out_data)
    if recording(inputs):
        out.requires_grad = True
        out.op = OpRecord(name, inputs, backward_fn)
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Graph:
    """The ops reachable from a root tensor, in topological order.

    ``ops[i]``'s inputs are all produced by ops earlier in the list (or by
    leaves); ``outputs[i]`` is the tensor ``ops[i]`` produced.  Tracing has
    no side effects.  A graph may be run backward exactly once, and
    ``backward`` empties both lists as it runs them.
    """

    def __init__(self, ops, outputs):
        self.ops: list[OpRecord] = list(ops)
        self.outputs: list[Tensor] = list(outputs)

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        # Iterative postorder DFS over the tensors that carry records.
        # Records are marked seen when expanded, not when pushed, so shared
        # subgraphs keep their producers ahead of every consumer.
        ops: list[OpRecord] = []
        outputs: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = []
        if root.op is not None:
            stack.append((root, False))
        while stack:
            t, expanded = stack.pop()
            rec = t.op
            if expanded:
                ops.append(rec)
                outputs.append(t)
                continue
            if id(rec) in seen:
                continue
            seen.add(id(rec))
            stack.append((t, True))
            for u in rec.inputs:
                o = u.op
                if o is not None and id(o) not in seen:
                    stack.append((u, False))
        return cls(ops, outputs)

    def __len__(self):
        return len(self.ops)


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` for every leaf the scalar loss depends on.

    The graph is freed as it runs: each consumed record drops its inputs and
    backward rule, and its output's ``.grad`` is cleared once passed on.
    Raises if the loss is not scalar, is detached from any recorded op, or
    if any part of the graph has already been run backward (no silent
    accumulation across passes).
    """
    if loss.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.shape}")
    if loss.op is None:
        raise GraphError("loss is detached from any recorded graph")
    g = Graph.trace(loss)
    if any(rec.consumed for rec in g.ops):
        raise GraphError("backward was already run on this graph")
    loss.grad = np.ones_like(loss.data)
    ops, outputs = g.ops, g.outputs
    while ops:
        rec, out = ops.pop(), outputs.pop()
        gout, out.grad = out.grad, None
        inputs, fn = rec.inputs, rec.backward_fn
        rec.consumed, rec.inputs, rec.backward_fn = True, (), None
        if gout is None:
            continue
        for t, gi in zip(inputs, fn(gout)):
            if gi is None:
                continue
            t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# MAC accounting hook


_active_counter: contextvars.ContextVar["MacCounter | None"] = contextvars.ContextVar(
    "mswecg_mac_counter", default=None
)


class MacCounter:
    """Tallies the scalar multiplies of every matrix product executed while
    active: each :func:`matmul`, and each product a fused op reports through
    :func:`count_macs`.

    Counts are exact Python integers (no overflow) and grouped by a caller
    supplied phase label.  The counter is pass-local: it only sees matmuls
    run in the context (and thread) that activated it.
    """

    def __init__(self):
        self.phases: dict[str, int] = {}
        self._label = "untagged"

    def _add(self, macs: int) -> None:
        self.phases[self._label] = self.phases.get(self._label, 0) + int(macs)

    @property
    def total(self) -> int:
        return _py_sum(self.phases.values())

    @contextlib.contextmanager
    def phase(self, label: str):
        prev, self._label = self._label, label
        try:
            yield self
        finally:
            self._label = prev

    @contextlib.contextmanager
    def active(self):
        token = _active_counter.set(self)
        try:
            yield self
        finally:
            _active_counter.reset(token)


def count_macs(macs: int) -> None:
    """Tally ``macs`` on the active :class:`MacCounter`, if any (for fused ops)."""
    counter = _active_counter.get()
    if counter is not None:
        counter._add(macs)


# ---------------------------------------------------------------------------
# Gradient helpers


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        kd = list(g.shape)
        for a in sorted(axes):
            kd.insert(a, 1)
        g = g.reshape(kd)
    return np.broadcast_to(g, shape).copy()


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def fn(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op("add", (a, b), out, fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def fn(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op("sub", (a, b), out, fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def fn(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return apply_op("mul", (a, b), out, fn)


def scale(x, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)

    def fn(g):
        return (g * s if x.requires_grad else None,)

    return apply_op("scale", (x,), x.data * s, fn)


def matmul(a, b) -> Tensor:
    """Standard matrix product; leading dims are stacked numpy-style.

    Backward: da = g @ b^T, db = a^T @ g (summed over broadcast stacking).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-D or stacked operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    count_macs(math.prod(out.shape[:-2]) * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return apply_op("matmul", (a, b), out, fn)


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b)."""
    y = matmul(x, w)
    return y if b is None else add(y, b)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat needs at least one tensor")
    axis = axis % ts[0].ndim
    for t in ts[1:]:
        if t.ndim != ts[0].ndim:
            raise DimensionError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for ax, (s0, s1) in enumerate(zip(ts[0].shape, t.shape)):
            if ax != axis and s0 != s1:
                raise DimensionError(f"concat shapes differ off axis {axis}: {ts[0].shape} vs {t.shape}")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum(sizes)[:-1]

    def fn(g):
        pieces = np.split(g, bounds, axis=axis)
        return tuple(p if t.requires_grad else None for t, p in zip(ts, pieces))

    return apply_op("concat", ts, out, fn)


def sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def fn(g):
        if not x.requires_grad:
            return (None,)
        return (_expand_reduced(g, x.data.shape, axis, keepdims),)

    return apply_op("sum", (x,), out, fn)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else math.prod(
        x.data.shape[a] for a in ((axis,) if isinstance(axis, int) else tuple(axis))
    )

    def fn(g):
        if not x.requires_grad:
            return (None,)
        return (_expand_reduced(g, x.data.shape, axis, keepdims) / count,)

    return apply_op("mean", (x,), out, fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)

    def fn(g):
        return (g.reshape(x.data.shape) if x.requires_grad else None,)

    return apply_op("reshape", (x,), out, fn)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(a % x.ndim for a in axes)
    inv = np.argsort(axes)

    def fn(g):
        return (g.transpose(inv) if x.requires_grad else None,)

    return apply_op("transpose", (x,), x.data.transpose(axes), fn)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through unclipped entries."""
    x = _as_tensor(x)
    out = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def fn(g):
        return (g * mask if x.requires_grad else None,)

    return apply_op("clip", (x,), out, fn)


def log(x) -> Tensor:
    x = _as_tensor(x)

    def fn(g):
        return (g / x.data if x.requires_grad else None,)

    return apply_op("log", (x,), np.log(x.data), fn)


# ---------------------------------------------------------------------------
# Nonlinearities


def softmax_lastdim(x) -> Tensor:
    """Overflow-safe softmax over the last axis (max-subtracted)."""
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"softmax needs a non-empty last dim, got shape {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        if not x.requires_grad:
            return (None,)
        dot = (g * p).sum(axis=-1, keepdims=True)
        return ((g - dot) * p,)

    return apply_op("softmax", (x,), p, fn)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    p = expit(x.data)

    def fn(g):
        return (g * p * (1.0 - p) if x.requires_grad else None,)

    return apply_op("sigmoid", (x,), p, fn)
