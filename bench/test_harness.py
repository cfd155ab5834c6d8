"""Tests of the benchmark's own arithmetic. Run: python3 -m pytest bench"""

import sys
import types

import pytest

import harness
import workloads


def test_percentile_needs_ten_samples_beyond_it():
    xs = list(range(1, 20))  # 19 samples: p50 is the 10th, only 9 lie beyond
    assert harness.percentile(xs, 50) is None
    xs.append(20)  # 20 samples: p50 is the 10th, 10 lie beyond
    assert harness.percentile(xs, 50) == 10
    assert harness.percentile(range(999), 99) is None
    assert harness.percentile(range(1000), 99) == 989  # 990th smallest, 10 beyond
    assert harness.percentile(reversed(range(1000)), 99) == 989
    assert harness.percentile([], 50) is None
    with pytest.raises(ValueError):
        harness.percentile(range(100), 99.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_under_nested_wrappers():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def leaf():
        clock.tick(5)

    def inner():
        clock.tick(3)
        leaf()

    def outer():
        clock.tick(1)
        inner()
        clock.tick(2)
        inner()

    leaf = tracer.wrap("leaf", leaf)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.calls == {"leaf": 2, "inner": 2, "outer": 1}
    assert tracer.self_s == {"leaf": 10, "inner": 6, "outer": 3}
    assert tracer.self_sum() == clock.now == 19


def test_self_time_of_recursion_and_raising_calls():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)

    def countdown(n):
        clock.tick(1)
        if n:
            countdown(n - 1)

    countdown = tracer.wrap("countdown", countdown)

    def fails():
        clock.tick(4)
        raise KeyError("boom")

    fails = tracer.wrap("fails", fails)

    def caller():
        clock.tick(2)
        try:
            fails()
        except KeyError:
            pass
        countdown(2)

    caller = tracer.wrap("caller", caller)
    caller()
    assert tracer.calls == {"countdown": 3, "fails": 1, "caller": 1}
    assert tracer.self_s == {"countdown": 3, "fails": 4, "caller": 2}
    assert tracer.self_sum() == clock.now


def test_on_result_hook_counts_and_tolerates_other_shapes():
    tracer = harness.Tracer()
    hook = lambda args, result: {"items": len(result)}  # noqa: E731
    f = tracer.wrap("f", lambda n: [0] * n, hook)
    g = tracer.wrap("g", lambda n: n, hook)  # len() of an int: the hook no longer fits
    f(3)
    f(4)
    g(5)
    assert tracer.counts == {"items": 7}
    assert tracer.calls == {"f": 2, "g": 1}


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class Store:
        def rows(self, n):
            return a.f(n)

    a.f, a.Store = f, Store
    b.f = f  # imported by name, as "from .a import f" does
    b.use = lambda x: b.f(x)
    pkg.a, pkg.b, pkg.f = a, b, f
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg


def test_patches_wrap_every_lookup_and_report_absent_layers(fake_package):
    pkg = fake_package
    original_f, original_rows = pkg.a.f, pkg.a.Store.rows
    tracer = harness.Tracer()
    layers = ("a.f", "a.Store.rows", "a.split_f", "a.Gone.rows", "c.f")
    with harness.Patches(tracer, pkg, layers) as patches:
        assert pkg.b.use(1) == 2
        assert pkg.f(1) == 2
        assert pkg.a.Store().rows(1) == 2
    assert patches.absent == ["a.split_f", "a.Gone.rows", "c.f"]
    assert tracer.calls == {"a.f": 3, "a.Store.rows": 1}
    assert pkg.a.f is pkg.b.f is pkg.f is original_f
    assert pkg.a.Store.rows is original_rows


def test_patches_restore_after_an_exception(fake_package):
    pkg = fake_package
    original = pkg.b.f
    with pytest.raises(RuntimeError):
        with harness.Patches(harness.Tracer(), pkg, ("a.f",)):
            assert pkg.b.f is not original
            raise RuntimeError("stop")
    assert pkg.b.f is original


def _session(main):
    tt = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    return workloads.Session(tt, work=".", seed=0, seconds=1, trace=False)


def test_failed_counts_each_refused_or_errored_operation():
    codes = iter([0, 2, 4, 0])

    def main(argv):
        if argv == ["raise"]:
            raise ValueError("bug")
        return next(codes)

    s = _session(main)
    results = [s.cli("op", "x")[0] for _ in range(4)]  # exits 0, 2, 4, 0
    assert results == [True, False, False, True]
    assert s.cli("op", "raise")[0] is False
    assert (s.ops.attempted, s.ops.failed) == (5, 3)
    s.check("op", None)
    s.check("op", "wrong output")  # one of the successful operations, checked afterwards
    assert (s.ops.attempted, s.ops.failed) == (5, 4)
    assert s.ops.failed_frac == pytest.approx(4 / 5)
    assert len(s.ops.errors) == 4

    ok, _, result = s.call("lib", lambda: 1 / 0)
    assert not ok and result is None
    assert (s.ops.attempted, s.ops.failed) == (6, 5)


def test_rounds_run_every_unit_in_turn_and_stop_at_a_failure():
    s = _session(None)
    calls = []

    def unit(name, ok=True):
        return lambda: calls.append(name) or ok

    s.seconds = 0
    s.rounds(unit("focus"), unit("slice"))
    assert calls == ["focus", "slice"]
    calls.clear()
    s.seconds = 60
    s.rounds(unit("focus"), unit("fails", ok=False), unit("never"))
    assert calls == ["focus", "fails"]

