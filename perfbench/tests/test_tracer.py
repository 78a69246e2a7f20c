import sys
import types

import pytest

import tracer


@pytest.fixture
def fakepkg():
    """A package whose ``user`` module binds ``core.work`` by name, like mswecg.train."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x, scale=1):
        return x * scale

    def outer(x):
        return core.work(x) + 1  # looked up on the module at call time

    core.work, core.outer = work, outer
    user.work = work
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        sys.modules.pop(name, None)


def test_every_binding_is_wrapped_and_records_a_span(fakepkg):
    core, user = fakepkg
    tr = tracer.Tracer("op1")
    tracer.install(tr, [tracer.Hook("core.work", "fakepkg.core", "work")], package="fakepkg")
    assert user.work(3, scale=2) == 6
    assert core.work(4) == 4
    assert [(s["name"], s["attrs"]["via"], s["run"]) for s in tr.spans] == [
        ("core.work", "fakepkg.user", "op1"), ("core.work", "fakepkg.core", "op1")]
    assert all(s["end"] >= s["start"] for s in tr.spans)


def test_nested_calls_record_their_parent(fakepkg):
    core, _ = fakepkg
    tr = tracer.Tracer("op1")
    tracer.install(tr, [tracer.Hook("core.work", "fakepkg.core", "work"),
                        tracer.Hook("core.outer", "fakepkg.core", "outer")], package="fakepkg")
    assert core.outer(2) == 3
    inner, outer = tr.spans  # appended as they close
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_missing_target_is_reported_absent_and_the_rest_still_works(fakepkg):
    core, user = fakepkg
    tr = tracer.Tracer("op1")
    tracer.install(tr, [tracer.Hook("core.renamed", "fakepkg.core", "renamed"),
                        tracer.Hook("gone.work", "fakepkg.gone", "work"),
                        tracer.Hook("core.work", "fakepkg.core", "work")], package="fakepkg")
    assert tr.absent == {
        "core.renamed": "hook target fakepkg.core.renamed not found",
        "gone.work": "hook target fakepkg.gone.work not found",
    }
    assert user.work(5) == 5
    assert [s["name"] for s in tr.spans] == ["core.work"]


def test_untraced_tracer_keeps_no_spans(fakepkg):
    _, user = fakepkg
    seen = []
    hook = tracer.Hook("core.work", "fakepkg.core", "work",
                       before=lambda tr, args, kwargs: seen.append(args) or {})
    tr = tracer.Tracer("op0", record_spans=False)
    tracer.install(tr, [hook], package="fakepkg")
    assert user.work(7) == 7
    assert tr.spans == [] and seen == [(7,)]


def test_exceptions_propagate_and_still_close_the_span(fakepkg):
    core, _ = fakepkg
    tr = tracer.Tracer("op1")
    tracer.install(tr, [tracer.Hook("core.work", "fakepkg.core", "work")], package="fakepkg")
    with pytest.raises(TypeError):
        core.work(None, scale=2)
    assert tr._stack == []
