"""Unit tests for Resource, hold() and occupy()."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel, Resource, hold, occupy


def test_resource_capacity_validation():
    k = Kernel()
    with pytest.raises(SimulationError):
        Resource(k, capacity=0)


def test_resource_grants_immediately_when_free():
    k = Kernel()
    r = Resource(k, capacity=2)
    done = []

    def body(k):
        spans = yield from hold(r, 1.0)
        done.append(spans)

    k.process(body(k))
    k.run()
    assert done == [[(0.0, 1.0)]]
    assert r.in_use == 0


def test_resource_fifo_contention():
    k = Kernel()
    r = Resource(k, capacity=1)
    finish = []

    def worker(k, i):
        yield from hold(r, 1.0)
        finish.append((i, k.now))

    for i in range(4):
        k.process(worker(k, i))
    k.run()
    assert finish == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]


def test_resource_capacity_two_parallelism():
    k = Kernel()
    r = Resource(k, capacity=2)
    finish = []

    def worker(k, i):
        yield from hold(r, 1.0)
        finish.append(k.now)

    for i in range(4):
        k.process(worker(k, i))
    k.run()
    assert finish == [1.0, 1.0, 2.0, 2.0]


# -- hold against the per-unit worker-process fan-out it replaced ---------

def _fan_out_oracle(k, r, duration, units):
    """The fan-out ``hold`` replaced: one worker process per unit, each
    requesting, holding and releasing one slot; returns the per-unit
    spans in grant (= unit) order."""
    def worker():
        yield r.request()
        start = k.now
        yield k.timeout(duration)
        r.release()
        return (start, k.now)

    if units == 1:
        span = yield from worker()
        return [span]
    return (yield k.all_of([k.process(worker()) for _ in range(units)]))


def _run_schedule(seed, use_hold):
    """Seeded holders with distinct arrival times on one resource;
    returns per holder ``(spans, return time)``."""
    rng = random.Random(seed)
    capacity = rng.randint(1, 4)
    k = Kernel()
    r = Resource(k, capacity=capacity)
    durations = [rng.uniform(0.1, 2.0) for _ in range(3)]
    arrivals = sorted(rng.sample(range(1, 400), rng.randint(2, 9)))
    out = {}

    def holder(i, arrival, duration, units):
        yield k.timeout(arrival * 0.01 + rng.random() * 1e-3)
        if use_hold:
            spans = yield from hold(r, duration, units)
        else:
            spans = yield from _fan_out_oracle(k, r, duration, units)
        out[i] = (list(spans), k.now)

    for i, arrival in enumerate(arrivals):
        units = 1 if rng.random() < 0.4 else rng.randint(1, capacity)
        k.process(holder(i, arrival, rng.choice(durations), units))
    k.run()
    assert r.in_use == 0 and r.queue_length == 0
    return out


@pytest.mark.parametrize("seed", range(40))
def test_hold_matches_the_worker_fan_out(seed):
    """Per-unit grant order, unit completion times and the hold's own
    return time all equal the process-per-unit oracle's."""
    assert _run_schedule(seed, True) == _run_schedule(seed, False)


@pytest.mark.parametrize("units", [2, 4, 24])
def test_uncontended_fan_out_is_one_event(units):
    """The oracle costs 4k+1 events (k starts, grants, timeouts and
    finishes, plus the join); a free k-unit hold costs its timeout."""
    for use_hold, expected in ((True, 1), (False, 4 * units + 1)):
        k = Kernel()
        r = Resource(k, capacity=24)
        seen = []

        def body():
            before = k._seq
            if use_hold:
                spans = yield from hold(r, 0.5, units)
            else:
                spans = yield from _fan_out_oracle(k, r, 0.5, units)
            seen.append((k._seq - before, spans))

        k.process(body())
        k.run()
        assert seen == [(expected, [(0.0, 0.5)] * units)]


def test_multi_resource_hold_spans_the_common_end():
    """A background occupancy of two resources keeps the first from its
    grant while it queues for the second, and releases both at the
    common end."""
    k = Kernel()
    out, inn = Resource(k), Resource(k)
    got = []

    def occupant():
        yield from hold(inn, 3.0)

    def probe():
        yield k.timeout(2.0)
        got.append((k.now, out.in_use, inn.queue_length))

    k.process(occupant())
    occupy(k, (out, inn), 1.0,
           lambda: got.append((k.now, out.in_use, inn.in_use)))
    k.process(probe())
    k.run()
    # ``out`` was taken at 0 and kept while ``in`` was busy until 3.
    assert got == [(2.0, 1, 1), (4.0, 0, 0)]


def test_hold_rejects_zero_units():
    k = Kernel()
    with pytest.raises(SimulationError):
        next(hold(Resource(k), 1.0, 0))


def _transfer_oracle(k, resources, duration):
    """Event-per-grant acquisition of several resources: each grant is
    an event the holder resumes from, as before ``hold``."""
    for res in resources:
        yield res.request()
    yield k.timeout(duration)
    for res in reversed(resources):
        res.release()


@pytest.mark.parametrize("use_occupy", [True, False])
def test_grant_after_a_wait_keeps_its_event(use_occupy):
    """B queues for ``out`` and is granted at t=1; D is woken in the
    same instant, after B's grant event.  Requested through its grant
    event, B's ``inn`` slot starts B's timer after D's, so D finishes
    first at t=2 — the order an on-the-spot grant after the wait would
    flip."""
    k = Kernel()
    out, inn = Resource(k, name="out"), Resource(k, name="inn")
    woken = k.event()
    finished = []

    def a():
        yield from hold(out, 1.0)
        woken.succeed()

    def b():
        yield k.timeout(0.5)
        if use_occupy:
            occupy(k, (out, inn), 1.0,
                   lambda: finished.append(("b", k.now)))
        else:
            yield from _transfer_oracle(k, (out, inn), 1.0)
            finished.append(("b", k.now))

    def d():
        yield woken
        yield k.timeout(1.0)
        finished.append(("d", k.now))

    for body in (a, b, d):
        k.process(body())
    k.run()
    assert finished == [("d", 2.0), ("b", 2.0)]
