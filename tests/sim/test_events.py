"""Unit tests for events and composite conditions."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel
from repro.sim.events import AllOf


def test_event_lifecycle():
    k = Kernel()
    ev = k.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(7)
    assert ev.triggered and not ev.processed
    k.run()
    assert ev.processed
    assert ev.ok and ev.value == 7


def test_double_trigger_rejected():
    k = Kernel()
    ev = k.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_fail_needs_exception():
    k = Kernel()
    with pytest.raises(TypeError):
        k.event().fail("not an exception")


def test_value_before_trigger_rejected():
    k = Kernel()
    ev = k.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_all_of_waits_for_every_event():
    k = Kernel()
    times = []

    def body(k):
        yield k.all_of([k.timeout(1), k.timeout(3), k.timeout(2)])
        times.append(k.now)

    k.process(body(k))
    k.run()
    assert times == [3.0]


def test_any_of_fires_on_first():
    k = Kernel()
    times = []

    def body(k):
        yield k.any_of([k.timeout(5), k.timeout(1), k.timeout(3)])
        times.append(k.now)

    k.process(body(k))
    k.run()
    assert times == [1.0]


def test_empty_all_of_fires_immediately():
    k = Kernel()
    done = []

    def body(k):
        yield k.all_of([])
        done.append(k.now)

    k.process(body(k))
    k.run()
    assert done == [0.0]


def test_all_of_collects_values():
    k = Kernel()
    got = []

    def body(k):
        vals = yield k.all_of([k.timeout(1, value="a"), k.timeout(2, value="b")])
        got.append(vals)

    k.process(body(k))
    k.run()
    assert got == [["a", "b"]]


def test_all_of_propagates_failure():
    k = Kernel()

    def failer(k):
        yield k.timeout(1)
        raise RuntimeError("inner")

    def body(k):
        with pytest.raises(RuntimeError, match="inner"):
            yield k.all_of([k.process(failer(k)), k.timeout(5)])
        return "handled"

    p = k.process(body(k))
    k.run()
    assert p.value == "handled"


def test_condition_mixing_kernels_rejected():
    k1, k2 = Kernel(), Kernel()
    with pytest.raises(SimulationError):
        AllOf(k1, [k1.event(), k2.event()])


def test_all_of_with_already_processed_events():
    k = Kernel()
    e1 = k.event()
    e1.succeed("x")
    k.run()
    done = []

    def body(k):
        vals = yield k.all_of([e1, k.timeout(1, value="y")])
        done.append(vals)

    k.process(body(k))
    k.run()
    assert done == [["x", "y"]]
