"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit and row-major.  The engine defines no arithmetic of its
own: it records fused ops only.  Each op of the model (``mswecg.model`` and
the loss in ``mswecg.train``) computes its output on numpy arrays and records
itself on the tensor it produces through :func:`apply_op`, together with a
hand-written backward rule.  ``backward`` traces the records reachable from a
scalar loss into a :class:`Graph` and replays them in reverse topological
order, accumulating gradients into ``.grad`` buffers.  Every forward
product runs through :func:`matmul`, which counts its MACs from the shapes
that ran; backward products are plain ``@`` and are not counted.

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
is built and run backward in one thread; an op may spread its numpy work
over worker threads (``model._on_pool`` states which), but no graph runs on
one.  The recording switch and the active :class:`MacCounter` are context
variables, so a worker thread must run in a copy of its caller's context to
see them; a counter shared that way adds under a lock.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading

import numpy as np

from .errors import DimensionError, GraphError

__all__ = [
    "Tensor",
    "Graph",
    "MacCounter",
    "count_macs",
    "matmul",
    "no_grad",
    "recording",
    "apply_op",
    "backward",
    "tensor",
]


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
    gradient array (or None) per input, in order.  Every op is defined
    outside this module through this function.
    """
    out = Tensor(out_data)
    if recording(inputs):
        out.requires_grad = True
        out.op = OpRecord(name, inputs, backward_fn)
    return out


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


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
    active, as :func:`matmul` reports them through :func:`count_macs`.

    ``total`` is an exact Python integer (no overflow).  The counter is
    pass-local: it only sees products run in the context that activated it,
    or in a copy of that context taken while it was active, such as the ones
    ``model.predict`` runs its chunks in.
    """

    def __init__(self):
        self.total = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def active(self):
        token = _active_counter.set(self)
        try:
            yield self
        finally:
            _active_counter.reset(token)


def count_macs(macs: int) -> None:
    """Tally ``macs`` on the active :class:`MacCounter`, if any."""
    counter = _active_counter.get()
    if counter is not None:
        with counter._lock:  # ops on several threads may share one counter
            counter.total += int(macs)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on arrays, tallying ``out.size * a.shape[-1]`` MACs."""
    out = a @ b
    count_macs(out.size * a.shape[-1])
    return out
