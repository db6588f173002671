"""Shared-resource primitives built on the event kernel.

A counted FIFO server and two ways to occupy it cover every contention
point in the simulated cluster:

* :class:`Resource` — a counted FIFO server (CPU cores, NIC channels,
  OST service slots).  Strict FIFO granting keeps runs deterministic.
* :func:`hold` — occupancy inline from a process (a rank's core work):
  acquire, hold for a simulated duration, release.  A hold whose units
  are free when it starts costs one event (the :class:`Timeout` that
  ends it), and a k-unit hold models k worker threads without a
  process per thread.
* :func:`occupy` — occupancy in the background (a message on the wire,
  an OST request): the events a process holding the resources would
  schedule, driven by callbacks, then a continuation.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (Any, Callable, Deque, Generator, List, Optional, Tuple,
                    TYPE_CHECKING)

from ..errors import SimulationError
from .events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

#: One unit's occupancy as ``(start, end)`` in simulated seconds.
Span = Tuple[float, float]


class Resource:
    """A counted resource with strict-FIFO granting.

    Parameters
    ----------
    kernel:
        Owning kernel.
    capacity:
        Number of slots that may be held simultaneously (>= 1).
    name:
        Diagnostics label.
    """

    def __init__(self, kernel: "Kernel", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = int(capacity)
        self.name = name
        self._in_use = 0
        #: Grant events of the queued requests, oldest first.
        self._waiting: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- acquire, request, release -------------------------------------------
    def _acquire(self, units: int) -> bool:
        """Take ``units`` slots on the spot if they are free and nobody
        is queued; schedules nothing.  False leaves the resource as is."""
        if self._waiting or self._in_use + units > self.capacity:
            return False
        self._in_use += units
        return True

    def request(self) -> Event:
        """Ask for one slot.  The returned grant event fires once the
        slot is the requester's; the holder frees it with
        :meth:`release`."""
        # The resource's own name: no per-request string formatting on
        # this hot path.
        grant = Event(self.kernel, name=self.name)
        if self._acquire(1):
            grant.succeed(self)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, units: int = 1) -> None:
        """Free ``units`` held slots and grant waiters in FIFO order."""
        if self._in_use < units:  # pragma: no cover - defensive
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= units
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            nxt = waiting.popleft()
            self._in_use += 1
            nxt.succeed(self)


def hold(resource: Resource, duration: float,
         units: int = 1) -> Generator[Event, Any, List[Span]]:
    """Occupy ``units`` slots of ``resource`` for ``duration`` simulated
    seconds each, inline from a process::

        spans = yield from hold(node.cores, 0.25, units=4)

    Returns each unit's ``(start, end)`` in grant order.  Units are
    requested in FIFO order at call time.  When all of them are free
    and nobody is queued they are granted on the spot, and the hold
    costs one event: the :class:`Timeout` that ends it.  Otherwise each
    unit waits its turn and is released ``duration`` after its own
    grant (as if each were a worker thread), and the hold returns once
    the last unit is released.  :func:`occupy` holds one slot of
    several resources in the background, without a process.
    """
    if units < 1:
        raise SimulationError(f"hold of {units} unit(s)")
    kernel = resource.kernel
    if resource._acquire(units):
        start = kernel._now
        yield Timeout(kernel, duration)
        resource.release(units)
        return [(start, kernel._now)] * units
    if units > 1:
        return (yield _FanOut(resource, duration, units).done)
    yield resource.request()
    start = kernel._now
    yield Timeout(kernel, duration)
    resource.release()
    return [(start, kernel._now)]


def occupy(kernel: "Kernel", resources: Tuple[Resource, ...],
           duration: float, then: Callable[[], None]) -> None:
    """Occupy one slot of each of ``resources`` for ``duration``
    simulated seconds in the background, then call ``then()``.

    It schedules the events of a process started here that takes the
    resources in order, holds them to a common end and then calls
    ``then()``, without the process: a start event now, where the
    process's bootstrap event would sit; from it each resource is taken
    on the spot while it is free and nobody is queued, and after one
    wait every later one through its grant event (a grant decided on
    the spot there would move the timer ahead of same-instant events
    that the grant event keeps it behind); then the timer, whose end
    releases the slots in reverse order and calls ``then``.  A transfer
    keeps its outbound NIC while it queues for the inbound one.  With
    no resources it is a start event and a timer.
    """
    _Occupancy(kernel, resources, duration, then)


class _Occupancy(Event):
    """One :func:`occupy` call; the object is its own start event."""

    __slots__ = ("resources", "duration", "then", "taken")

    def __init__(self, kernel: "Kernel", resources: Tuple[Resource, ...],
                 duration: float, then: Callable[[], None]) -> None:
        super().__init__(kernel)
        self.resources = resources
        self.duration = duration
        self.then = then
        #: Resources acquired so far (a prefix of ``resources``).
        self.taken = 0
        self.callbacks.append(self._start)  # type: ignore[union-attr]
        self.succeed()

    def _start(self, _event: Event) -> None:
        for res in self.resources:
            if not res._acquire(1):
                self._wait(res)
                return
            self.taken += 1
        self._run()

    def _wait(self, res: Resource) -> None:
        grant = res.request()
        grant.callbacks.append(self._granted)  # type: ignore[union-attr]

    def _granted(self, _grant: Event) -> None:
        self.taken += 1
        if self.taken < len(self.resources):
            self._wait(self.resources[self.taken])
        else:
            self._run()

    def _run(self) -> None:
        timer = Timeout(self.kernel, self.duration)
        timer.callbacks.append(self._end)  # type: ignore[union-attr]

    def _end(self, _timer: Event) -> None:
        for res in reversed(self.resources):
            res.release()
        self.then()


class _FanOut:
    """The units of one contended k-unit :func:`hold`.

    Each unit is one FIFO request.  Its grant starts its own timer, the
    timer releases it, and the last release fires :attr:`done` with the
    spans — the worker threads are modelled without a process each.
    """

    __slots__ = ("resource", "duration", "spans", "left", "done")

    def __init__(self, resource: Resource, duration: float,
                 units: int) -> None:
        self.resource = resource
        self.duration = duration
        self.spans: List[Optional[Span]] = [None] * units
        #: Units not yet released.
        self.left = units
        self.done = Event(resource.kernel, name=resource.name)
        for unit in range(units):
            grant = resource.request()
            grant.callbacks.append(partial(self._start, unit))

    def _start(self, unit: int, _grant: Event) -> None:
        kernel = self.resource.kernel
        timer = Timeout(kernel, self.duration)
        timer.callbacks.append(partial(self._end, unit, kernel._now))

    def _end(self, unit: int, start: float, _timer: Event) -> None:
        self.resource.release()
        self.spans[unit] = (start, self.resource.kernel._now)
        self.left -= 1
        if self.left == 0:
            self.done.succeed(self.spans)
