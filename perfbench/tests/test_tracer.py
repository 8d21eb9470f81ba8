"""Self time and counters of the layer-boundary spans."""

import pytest

import tracer as tracer_module
from tracer import Tracer, merge


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_spans(clock):
    t = Tracer()

    def c():
        clock.advance(4.0)

    def b():
        clock.advance(1.0)
        wc()
        clock.advance(1.0)

    def a():
        clock.advance(1.0)
        wb()
        clock.advance(1.0)
        wc()

    wc, wb = t.wrap("gamma", c), t.wrap("beta", b)
    t.call("alpha", a)
    assert t.self_s == {"alpha": 2.0, "beta": 2.0, "gamma": 8.0}
    assert t.calls == {"alpha": 1, "beta": 1, "gamma": 2}
    assert t.stack == []


def test_call_into_own_layer_opens_no_span(clock):
    t = Tracer()

    def inner():
        clock.advance(3.0)

    winner = t.wrap("alpha", inner)

    def outer():
        clock.advance(1.0)
        winner()

    t.call("alpha", outer)
    assert t.self_s == {"alpha": 4.0}
    assert t.calls == {"alpha": 1}


def test_exception_still_closes_the_span(clock):
    t = Tracer()

    def bad():
        clock.advance(2.0)
        raise ValueError("x")

    wbad = t.wrap("beta", bad)

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            wbad()

    t.call("alpha", outer)
    assert t.self_s == {"alpha": 1.0, "beta": 2.0}
    assert t.stack == []


def test_paused_tracer_records_nothing(clock):
    t = Tracer()
    t.paused = True
    t.call("alpha", lambda: clock.advance(5.0))
    assert not t.self_s and not t.calls


def test_install_wraps_boundaries_and_uninstall_restores():
    from ttperiods import cohomology, groups, spectra

    originals = (spectra.weyl_group, cohomology.identify, groups.compose, groups.subgroups)
    t = Tracer()
    t.install()
    try:
        assert spectra.weyl_group is not originals[0]
        assert cohomology.identify is not originals[1]
        assert groups.compose is originals[2]  # same-module helper stays bare
        assert groups.subgroups is not originals[3]  # imported inside a function
        G = groups.cyclic(8)
        t.call("spectra", spectra.dperm_period_map, G, 2)
    finally:
        t.uninstall()
    assert (spectra.weyl_group, cohomology.identify, groups.compose,
            groups.subgroups) == originals
    assert t.self_s["groups"] > 0
    assert t.counters["spectra.strata"] == 4
    assert t.counters["groups.weyl_groups"] == 4


def test_merge_sums_children():
    a = {"self_s": {"cli": 1.0}, "calls": {"cli": 1}, "counters": {}, "import_s": 0.5}
    b = {"self_s": {"cli": 2.0, "groups": 1.0}, "calls": {"cli": 1}, "counters": {"x": 2},
         "import_s": 0.25}
    m = merge([a, b])
    assert m["self_s"] == {"cli": 3.0, "groups": 1.0}
    assert m["calls"] == {"cli": 2}
    assert m["counters"] == {"x": 2}
    assert m["import_s"] == 0.75
