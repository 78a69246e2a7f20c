"""The backward pass of a training step, and the MAC-counted product.

A training forward (``mswecg.model.forward`` with ``train`` true) and the
loss (``mswecg.train.bce_loss``) hand back one backward rule per stage of the
model's fixed chain: embedding, block, fusion, loss.  A rule is a closure
``rule(g, grads)`` over what its stage's forward kept: it takes the gradient
of its stage's output, writes the gradients of its stage's parameters into
``grads`` (name -> writable array, views of one vector laid out like
``ParamStore.flat``) and returns the gradient of its stage's input.
:func:`backward` runs a step's rules last to first.  An evaluation forward
builds no rules.

Every forward product runs through :func:`matmul`, which counts its MACs
from the shapes that ran; backward products are plain ``@`` and are not
counted.  The active :class:`MacCounter` is a context variable, so a worker
thread must run in a copy of its caller's context to see it
(``model._on_pool`` runs every call that way); a counter shared that way adds
under a lock.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading

import numpy as np

from .errors import GraphError

__all__ = ["MacCounter", "backward", "count_macs", "matmul"]


def backward(rules: list, grads) -> None:
    """Run a training step's backward rules, last to first.

    The loss rule, last in ``rules``, receives the gradient 1.0; each rule's
    returned input gradient is the output gradient of the rule before it.
    Each rule is popped before it runs, so it is freed once it has run and
    ``rules`` ends empty.  Raises :class:`GraphError` for an empty list: a
    step whose rules already ran, or a forward that built none.
    """
    if not rules:
        raise GraphError("no backward rules to run: this step's backward already ran, "
                         "or its forward was not a training one")
    g = 1.0
    while rules:
        g = rules.pop()(g, grads)


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
