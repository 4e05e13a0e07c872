"""Span nesting, patching by name, and the exact counters."""

import textwrap
import time

import pytest

from tracer import CallCounter, Tracer


class Worker:
    def outer(self):
        time.sleep(0.02)
        return self.inner() + 1

    def inner(self):
        time.sleep(0.03)
        return 1


def test_self_time_excludes_nested_spans():
    tracer = Tracer()
    for name in ("outer", "inner"):
        tracer.patch(Worker, name, name, lambda fn, name=name: tracer.span(name, fn))
    try:
        assert Worker().outer() == 2
    finally:
        tracer.restore()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert 0.018 < tracer.self_s["outer"] < 0.028
    assert 0.028 < tracer.self_s["inner"] < 0.045


def test_restore_puts_class_and_instance_attributes_back():
    original = Worker.__dict__["inner"]
    worker = Worker()
    tracer = Tracer()
    tracer.patch(Worker, "inner", "cls", lambda fn: tracer.span("cls", fn))
    tracer.patch(worker, "outer", "obj", lambda fn: tracer.span("obj", fn))
    assert "outer" in vars(worker)
    tracer.restore()
    assert Worker.__dict__["inner"] is original
    assert "outer" not in vars(worker)


def test_a_renamed_function_is_reported_missing_not_raised():
    tracer = Tracer()
    assert not tracer.patch(Worker, "gone", "Worker.gone", lambda fn: fn)
    assert not tracer.patch(None, "sweep", "Kernel.sweep", lambda fn: fn)
    assert tracer.missing == ["Worker.gone", "Kernel.sweep"]
    tracer.restore()


def test_exceptions_still_close_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)()
    assert tracer.calls["boom"] == 1
    assert tracer._stack == []


def test_tally_adds_a_measure_of_each_result():
    tracer = Tracer()
    grid = tracer.tally("cells", lambda n: [0] * n, len)
    grid(3)
    grid(4)
    assert tracer.counts["cells"] == 7


def test_call_counter_repeats_exactly_and_skips_own_frames():
    def work():
        for _ in range(5):
            textwrap.dedent("  a\n  b\n")

    work()  # warm caches so that first-call set-up is not counted
    counts = []
    for _ in range(2):
        counter = CallCounter()
        counter.counting(work)()
        counts.append(counter.calls)
    assert counts[0] == counts[1] > 0
    counter = CallCounter()
    counter.counting(lambda: None)()
    assert counter.calls == 0
