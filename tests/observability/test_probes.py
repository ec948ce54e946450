"""Probe context managers: owner resolution, no-op mode, error capture."""

from types import SimpleNamespace

import pytest

from repro.observability import counter, instant, probe
from repro.sim import Simulator
from repro.sim.probes import _NULL


def test_null_probe_is_shared_when_tracing_off():
    sim = Simulator(seed=0, trace=False)
    assert probe(sim, "t", "l") is _NULL
    assert probe(None, "t", "l") is _NULL
    # and the null context is harmless
    with probe(None, "t", "l") as span:
        assert span is None


def test_instant_and_counter_are_noops_when_tracing_off():
    sim = Simulator(seed=0, trace=False)
    instant(sim, "nothing")  # must not raise
    counter(sim, "nothing", 3)


def test_owner_resolution_variants():
    sim = Simulator(seed=0, trace=True)
    kernel_like = SimpleNamespace(sim=sim)
    for owner in (sim, sim.trace, kernel_like):
        with probe(owner, "t", "l"):
            pass
    assert len(sim.trace.spans) == 3
    assert all(span.closed for span in sim.trace.spans)


def test_probe_records_span_with_meta_and_simulated_time():
    sim = Simulator(seed=0, trace=True)

    def body():
        with probe(sim, "mytrack", "phase", {"detail": 42}):
            yield sim.timeout(100.0)

    sim.process(body())
    sim.run()
    (span,) = sim.trace.spans
    assert span.track == "mytrack"
    assert span.label == "phase"
    assert span.meta["detail"] == 42
    assert span.closed
    assert span.duration > 0.0


def test_probe_adds_no_simulated_time():
    def body(sim, traced):
        if traced:
            with probe(sim, "t", "l"):
                yield sim.timeout(50.0)
        else:
            yield sim.timeout(50.0)

    times = []
    for traced in (True, False):
        sim = Simulator(seed=0, trace=traced)
        sim.process(body(sim, traced))
        sim.run()
        times.append(sim.now)
    assert times[0] == times[1]


def test_probe_closes_span_and_tags_error_on_exception():
    sim = Simulator(seed=0, trace=True)
    with pytest.raises(ValueError):
        with probe(sim, "t", "failing"):
            raise ValueError("boom")
    (span,) = sim.trace.spans
    assert span.closed
    assert span.meta["error"] == "ValueError"


def test_instant_and_counter_record_when_tracing_on():
    sim = Simulator(seed=0, trace=True)
    instant(sim, "tick", {"detail": 1})
    counter(sim, "widgets", 3)
    assert sim.trace.marks[0][1] == "tick"
    assert sim.trace.counters["widgets"] == [(0.0, 3)]
