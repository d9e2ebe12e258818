"""Span arithmetic: self time never exceeds total time, children nest inside
their parent, and patched attributes are restored."""

import itertools
import types

from spans import Span, Tracer, nesting_errors, self_times, summarize


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def traced_call_tree():
    """outer -> (inner -> leaf, inner) on a clock that advances one unit per
    reading, recorded under two operation ids."""
    tracer = Tracer(clock=ticking_clock())
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.inner = lambda leaf: mod.leaf() if leaf else None
    mod.outer = lambda: (mod.inner(True), mod.inner(False))
    for attr in ("leaf", "inner", "outer"):
        tracer.patch(mod, attr, f"m.{attr}")
    for op in (0, 1):
        tracer.op = op
        root = tracer.begin("op")
        mod.outer()
        tracer.end(root)
    tracer.restore()
    return tracer, mod


def test_self_time_within_total_and_children_nest():
    tracer, _ = traced_call_tree()
    spans = tracer.spans
    assert len(spans) == 2 * 5
    assert nesting_errors(spans) == []
    own = self_times(spans)
    for s in spans:
        assert 0.0 <= own[s.id] <= s.duration
    rows = summarize(spans)
    assert rows["m.inner"]["calls"] == 4
    assert rows["m.leaf"]["calls"] == 2
    for row in rows.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]


def test_self_times_sum_to_root_duration():
    tracer, _ = traced_call_tree()
    own = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert sum(own.values()) == sum(r.duration for r in roots)


def test_nesting_errors_detects_escape_and_wrong_op():
    parent = Span(0, "p", op=0, parent=None, start=0.0, end=10.0)
    late = Span(1, "late", op=0, parent=0, start=5.0, end=11.0)
    other = Span(2, "other", op=1, parent=0, start=1.0, end=2.0)
    backwards = Span(3, "back", op=0, parent=0, start=4.0, end=3.0)
    errors = nesting_errors([parent, late, other, backwards])
    assert len(errors) == 3
    assert any("late" in e and "leaves parent" in e for e in errors)
    assert any("other" in e and "op 1" in e for e in errors)
    assert any("back" in e and "ends before" in e for e in errors)


def test_restore_puts_back_the_originals():
    _, mod = traced_call_tree()
    assert not hasattr(mod.outer, "__wrapped__")
    assert not hasattr(mod.leaf, "__wrapped__")


def test_span_closed_on_exception():
    tracer = Tracer(clock=ticking_clock())

    def boom():
        raise ValueError("x")

    traced = tracer.wrap(boom, "boom")
    try:
        traced()
    except ValueError:
        pass
    assert tracer.open_names() == []
    assert tracer.spans[0].end > tracer.spans[0].start


def test_iteration_span_covers_the_consuming_loop():
    tracer = Tracer(clock=ticking_clock())
    mod = types.SimpleNamespace(leaf=lambda: None)
    tracer.patch(mod, "leaf", "m.leaf")
    rows = tracer.wrap_iter(zip, "m.rows")
    tracer.op = 0
    root = tracer.begin("op")
    for _ in rows([1, 2], [3, 4]):
        mod.leaf()
    tracer.end(root)
    tracer.restore()
    assert nesting_errors(tracer.spans) == []
    by_name = {s.name: s for s in tracer.spans}
    loop = by_name["m.rows"]
    assert loop.parent == root.id
    leaves = [s for s in tracer.spans if s.name == "m.leaf"]
    assert len(leaves) == 2
    assert all(s.parent == loop.id for s in leaves)
    assert tracer.open_names() == []


def test_replace_removes_an_attribute_that_was_absent():
    tracer = Tracer()
    mod = types.SimpleNamespace(kept=1)
    tracer.replace(mod, "added", 2)
    tracer.replace(mod, "kept", 3)
    assert (mod.added, mod.kept) == (2, 3)
    tracer.restore()
    assert not hasattr(mod, "added")
    assert mod.kept == 1
