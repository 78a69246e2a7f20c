"""Spans and counters recorded around calls into mswecg's layers.

The benchmark never edits the program.  It imports mswecg in the workload's
own process and replaces module attributes with thin wrappers: every module
of the package that binds a hooked function (``train`` binds ``forward`` and
``predict`` by name, ``cli`` binds ``load_dataset`` and friends) gets its
binding wrapped, so the call is seen whichever module makes it.

A span holds a name, start and end (``time.monotonic_ns``), the id of the
span open when it started, the run id and a few attributes.  Spans stay in
memory and are written out by the caller when the run ends.  A hook whose
target is missing, say after a refactor renames it, is recorded in
``Tracer.absent`` with the reason instead of failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "mswecg"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float | None:
    """Resident set size of this process, from /proc/self/statm."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE / 2**20
    except OSError:
        return None


def io_counters(after_this_read: bool) -> tuple[int, int] | None:
    """(rchar, wchar) of this process, from /proc/self/io.

    The kernel adds this read's own bytes to rchar only after it has
    produced the text, so a reading taken before a call counts them in
    (``after_this_read``) and one taken after the call leaves them out;
    the difference is then exactly what the call read.
    """
    try:
        with open("/proc/self/io", "rb", buffering=0) as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = dict(line.split(b":") for line in raw.splitlines())
    rchar = int(fields[b"rchar"]) + (len(raw) if after_this_read else 0)
    return rchar, int(fields[b"wchar"])


class Tracer:
    """Spans and counters of one workload process."""

    def __init__(self, run_id: str, record_spans: bool = True):
        self.run_id = run_id
        self.record_spans = record_spans
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.evaluate_records: list[int] = []
        self.absent: dict[str, str] = {}
        self.macs_counted: set[bool] = set()  # forward modes whose MACs were counted
        self.first_forward: float | None = None  # time.monotonic() seconds
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, hook: "Hook", fn: Callable, binding: str, args, kwargs):
        attrs = hook.before(self, args, kwargs) if hook.before else {}
        if not self.record_spans:
            return fn(*args, **kwargs)
        context = attrs.pop("_context", None)
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            if context is None:
                result = fn(*args, **kwargs)
            else:
                with context:
                    result = fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
        attrs["via"] = binding
        if hook.after:
            hook.after(self, result, attrs)
        self.spans.append({"id": span_id, "name": hook.name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, "attrs": attrs})
        return result


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (and every binding of it) in a span called ``name``.

    ``before(tracer, args, kwargs)`` returns the span's attributes; an
    attribute ``_context`` is entered around the call.  ``after(tracer,
    result, attrs)`` runs once the span has closed.
    """

    name: str
    module: str
    attr: str
    before: Callable | None = None
    after: Callable | None = None


def install(tracer: Tracer, hooks, package: str = PACKAGE) -> None:
    """Wrap every binding of each hook's target in the loaded ``package``."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for hook in hooks:
        target = getattr(sys.modules.get(hook.module), hook.attr, None)
        if not callable(target):
            tracer.absent[hook.name] = f"hook target {hook.module}.{hook.attr} not found"
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, _wrapper(tracer, hook, target, mod.__name__))


def _wrapper(tracer: Tracer, hook: Hook, fn: Callable, binding: str) -> Callable:
    def wrapper(*args, **kwargs):
        return tracer.call(hook, fn, binding, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# What each hook records


def _forward_before(tr: Tracer, args, kwargs) -> dict:
    if tr.first_forward is None:
        tr.first_forward = time.monotonic()
        tr.counters["rss_after_setup_mb"] = rss_mb()
    if not tr.record_spans:
        return {}
    record = args[0] if args else kwargs.get("record")
    shape = getattr(getattr(record, "signal", record), "shape", ())
    train = bool(kwargs.get("train", args[3] if len(args) > 3 else False))
    attrs = {"train": train, "batch": shape[0] if len(shape) == 3 else 1}
    # Count MACs on the first forward of each mode; the count is exact and
    # the same on every call of that shape.
    counter_cls = getattr(sys.modules.get(f"{PACKAGE}.tensor"), "MacCounter", None)
    if counter_cls is not None and train not in tr.macs_counted:
        tr.macs_counted.add(train)
        attrs["_counter"] = counter_cls()
        attrs["_context"] = attrs["_counter"].active()
    return attrs


def _forward_after(tr: Tracer, result, attrs: dict) -> None:
    counter = attrs.pop("_counter", None)
    if counter is not None:
        attrs["macs"] = counter.total
    if not attrs["train"] and "predict_graph_ops" not in tr.counters:
        graph = getattr(sys.modules.get(f"{PACKAGE}.tensor"), "Graph", None)
        probs = getattr(result, "probs", None)
        if graph is not None and probs is not None:
            tr.counters["predict_graph_ops"] = len(graph.trace(probs).ops)


def _backward_before(tr: Tracer, args, kwargs) -> dict:
    if "graph_ops_per_step" not in tr.counters:
        graph = getattr(sys.modules.get(f"{PACKAGE}.tensor"), "Graph", None)
        loss = args[0] if args else kwargs.get("loss")
        if graph is not None and loss is not None:
            ops = graph.trace(loss).ops
            tr.counters["graph_ops_per_step"] = len(ops)
            tr.counters["matmul_calls_per_step"] = sum(op.name == "matmul" for op in ops)
    return {}


def _adam_after(tr: Tracer, result, attrs: dict) -> None:
    rss = rss_mb()
    tr.counters.setdefault("rss_first_step_mb", rss)
    tr.counters["rss_last_step_mb"] = rss


def _io_before(tr: Tracer, args, kwargs) -> dict:
    return {"_io": io_counters(after_this_read=True)}


def _bytes_read_after(tr: Tracer, result, attrs: dict) -> None:
    before, after = attrs.pop("_io"), io_counters(after_this_read=False)
    if before is not None and after is not None:
        attrs["bytes"] = after[0] - before[0]


def _bytes_written_after(tr: Tracer, result, attrs: dict) -> None:
    before, after = attrs.pop("_io"), io_counters(after_this_read=False)
    if before is not None and after is not None:
        attrs["bytes"] = after[1] - before[1]


def _predict_before(tr: Tracer, args, kwargs) -> dict:
    signals = args[0] if args else kwargs.get("signals")
    return {"records": len(signals)}


def _evaluate_before(tr: Tracer, args, kwargs) -> dict:
    batch = args[0] if args else kwargs.get("batch")
    records = len(batch.scores)
    tr.evaluate_records.append(records)
    return {"records": records}


FORWARD = Hook("model.forward", f"{PACKAGE}.model", "forward", _forward_before, _forward_after)
EVALUATE = Hook("metrics.evaluate", f"{PACKAGE}.metrics", "evaluate", _evaluate_before)

# Untraced runs keep only the stamp of the first forward pass (the end of
# set-up) and the record count the eval report was computed over.
UNTRACED_HOOKS = (FORWARD, EVALUATE)

TRACED_HOOKS = (
    Hook("data.load_dataset", f"{PACKAGE}.data", "load_dataset", _io_before, _bytes_read_after),
    Hook("data.standardize", f"{PACKAGE}.data", "standardize"),
    FORWARD,
    Hook("model.embed", f"{PACKAGE}.model", "linear_embed"),
    Hook("model.msw_block", f"{PACKAGE}.model", "msw_block"),
    Hook("model.window_attention", f"{PACKAGE}.model", "window_attention"),
    Hook("model.branch_project", f"{PACKAGE}.model", "branch_project"),
    Hook("model.fuse", f"{PACKAGE}.model", "fuse"),
    Hook("model.predict", f"{PACKAGE}.model", "predict", _predict_before),
    Hook("tensor.backward", f"{PACKAGE}.tensor", "backward", _backward_before),
    Hook("train.bce_loss", f"{PACKAGE}.train", "bce_loss"),
    Hook("train.adam_step", f"{PACKAGE}.train", "adam_step", None, _adam_after),
    EVALUATE,
    Hook("params.save_checkpoint", f"{PACKAGE}.params", "save_checkpoint",
         _io_before, _bytes_written_after),
    Hook("params.load_checkpoint", f"{PACKAGE}.params", "load_checkpoint",
         _io_before, _bytes_read_after),
)
