"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Kernel


def test_clock_starts_at_zero():
    assert Kernel().now == 0.0


def test_timeout_advances_clock():
    k = Kernel()

    def body(k):
        yield k.timeout(2.5)

    k.process(body(k))
    k.run()
    assert k.now == 2.5


def test_timeout_value_passthrough():
    k = Kernel()
    seen = []

    def body(k):
        v = yield k.timeout(1.0, value="payload")
        seen.append(v)

    k.process(body(k))
    k.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    k = Kernel()
    with pytest.raises(SimulationError):
        k.timeout(-1)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(delay):
    """A NaN delay would resume its process at ``now = nan``."""
    k = Kernel()
    with pytest.raises(SimulationError, match="finite"):
        k.timeout(delay)
    assert k.queue_size == 0


def test_process_return_value():
    k = Kernel()

    def body(k):
        yield k.timeout(1)
        return 42

    p = k.process(body(k))
    k.run()
    assert p.value == 42


def test_nested_process_wait():
    k = Kernel()

    def child(k):
        yield k.timeout(3)
        return "done"

    def parent(k):
        v = yield k.process(child(k))
        return (v, k.now)

    p = k.process(parent(k))
    k.run()
    assert p.value == ("done", 3.0)


def test_same_time_events_fifo_order():
    k = Kernel()
    order = []

    def body(k, tag):
        yield k.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        k.process(body(k, tag))
    k.run()
    assert order == [0, 1, 2, 3, 4]


def test_same_time_fifo_through_front_slot_and_heap():
    """A burst of same-timestamp events lands partly in the front-slot
    buffer and partly in the heap; processing must still be FIFO."""
    k = Kernel()
    order = []

    def waiter(k, ev, tag):
        yield ev
        order.append(tag)

    events = [k.event() for _ in range(8)]
    for i, ev in enumerate(events):
        k.process(waiter(k, ev, i))

    def trigger(k):
        yield k.timeout(1.0)
        # All eight fire at t=1.0: the first grabs the front slot, the
        # rest spill to the heap — both pop paths must respect FIFO.
        for ev in events:
            ev.succeed(None)

    k.process(trigger(k))
    k.run()
    assert order == list(range(8))


def _tie_order(seed, n=10):
    """Completion order of ``n`` same-timestamp processes under one
    shake seed (None = the FIFO baseline)."""
    from repro.flags import override

    with override(shake=seed):
        k = Kernel()
    order = []

    def body(k, tag):
        yield k.timeout(1.0)
        order.append(tag)

    for tag in range(n):
        k.process(body(k, tag))
    k.run()
    return order


def test_shaken_kernel_permutes_ties_deterministically():
    base = _tie_order(None)
    assert base == list(range(10))  # FIFO baseline
    shaken = [_tie_order(s) for s in (1, 2, 3)]
    for s in shaken:
        assert sorted(s) == base  # a permutation: nothing lost
    assert any(s != base for s in shaken)  # and it really does permute
    assert _tie_order(2) == shaken[1]  # same seed, same schedule


def test_cancelled_timer_does_not_move_the_clock():
    k = Kernel()
    fired = []

    def body(k):
        timer = k.timeout(5.0)
        timer.callbacks.append(fired.append)
        yield k.timeout(1.0)
        timer.cancel()

    k.process(body(k))
    assert k.run() == 1.0
    assert fired == []


def test_deadlock_detection():
    k = Kernel()

    def stuck(k):
        yield k.event()  # never triggered

    k.process(stuck(k))
    with pytest.raises(DeadlockError):
        k.run()


def test_unhandled_process_exception_propagates():
    k = Kernel()

    def body(k):
        yield k.timeout(1)
        raise ValueError("boom")

    k.process(body(k))
    with pytest.raises(ValueError, match="boom"):
        k.run()


def test_parent_can_catch_child_exception():
    k = Kernel()

    def child(k):
        yield k.timeout(1)
        raise ValueError("child boom")

    def parent(k):
        try:
            yield k.process(child(k))
        except ValueError as e:
            return f"caught {e}"

    p = k.process(parent(k))
    k.run()
    assert p.value == "caught child boom"


def test_determinism_two_identical_runs():
    def trace_run():
        k = Kernel()
        log = []

        def worker(k, i):
            yield k.timeout(0.5 * (i % 3))
            log.append((i, k.now))
            yield k.timeout(1.0)
            log.append((i, k.now))

        for i in range(10):
            k.process(worker(k, i))
        k.run()
        return log

    assert trace_run() == trace_run()


def test_yield_non_event_is_error():
    k = Kernel()

    def body(k):
        yield "not an event"

    k.process(body(k))
    with pytest.raises(SimulationError, match="may only yield events"):
        k.run()


def test_process_waiting_on_already_processed_event():
    k = Kernel()
    ev = k.event()
    ev.succeed("early")
    k.run()  # processes the event with no waiters
    got = []

    def late(k):
        v = yield ev
        got.append(v)

    k.process(late(k))
    k.run()
    assert got == ["early"]
