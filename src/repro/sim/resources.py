"""Shared-resource primitives built on the event kernel.

Two primitives cover every contention point in the simulated cluster:

* :class:`Resource` — a counted FIFO server (CPU cores, NIC channels,
  OST service slots).  Strict FIFO granting keeps runs deterministic.
* :func:`hold` — the one way library code occupies a resource:
  acquire, hold for a simulated duration, release.  A hold whose units
  are free when it starts costs one event (the :class:`Timeout` that
  ends it), and a k-unit hold models k worker threads without a
  process per thread.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (Any, Deque, Generator, List, Optional, Tuple, Union,
                    TYPE_CHECKING)

from ..errors import SimulationError
from .events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

#: One unit's occupancy as ``(start, end)`` in simulated seconds.
Span = Tuple[float, float]


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    It fires when the resource grants a slot to the requester.  Pass it to
    :meth:`Resource.release` to free the slot.
    """

    __slots__ = ("resource",)

    def __init__(self, kernel: "Kernel", resource: "Resource") -> None:
        # Plain attribute reference: request events are created on the
        # per-message hot path, so skip per-instance string formatting.
        super().__init__(kernel, name=resource.name)
        self.resource = resource


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
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- the acquire/release pair -------------------------------------------
    def _acquire(self, units: int) -> bool:
        """Take ``units`` slots on the spot if they are free and nobody
        is queued; schedules nothing.  False leaves the resource as is."""
        if self._waiting or self._in_use + units > self.capacity:
            return False
        self._in_use += units
        return True

    def _release(self, units: int) -> None:
        """Free ``units`` held slots and grant waiters in FIFO order."""
        if self._in_use < units:  # pragma: no cover - defensive
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= units
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            nxt = waiting.popleft()
            self._in_use += 1
            nxt.succeed(self)

    # -- the event interface --------------------------------------------------
    def request(self) -> Request:
        """Ask for a slot.  The returned event fires once granted."""
        req = Request(self.kernel, self)
        if self._acquire(1):
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` and grant the next waiter."""
        if request.resource is not self:
            raise SimulationError("release() with a foreign request")
        if not request.triggered:
            # The request never got the slot: cancel it from the queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError("release() of an unknown pending request")
            return
        self._release(1)


def hold(resource: Union[Resource, Tuple[Resource, ...]], duration: float,
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
    the last unit is released.  An interrupted hold leaves no unit held
    or queued.

    ``resource`` may also be a tuple of resources, one slot of each
    (``units`` must be 1): they are acquired in order, each kept from
    its own grant until the common end, and released in reverse order —
    a transfer keeps its outbound NIC while it queues for the inbound
    one.  Once it has waited for one of them, the rest are requested
    through their grant events even when free.
    """
    resources = resource if isinstance(resource, tuple) else (resource,)
    if units < 1 or (units > 1 and len(resources) != 1):
        raise SimulationError(
            f"hold of {units} unit(s) on {len(resources)} resource(s)")
    first = resources[0]
    kernel = first.kernel
    if len(resources) == 1 and first._acquire(units):
        start = kernel._now
        try:
            yield Timeout(kernel, duration)
        finally:
            first._release(units)
        return [(start, kernel._now)] * units
    if units > 1:
        fan_out = _FanOut(first, duration, units)
        try:
            return (yield fan_out.done)
        finally:
            fan_out.abandon()
    held: List[Tuple[Resource, Optional[Request]]] = []
    waited = False
    try:
        for res in resources:
            # Only call-time grants skip the grant event.  After a wait
            # the process resumes from an event, and a grant decided on
            # the spot there would move its timer ahead of same-instant
            # events that the grant event keeps it behind.
            if not waited and res._acquire(1):
                held.append((res, None))
            else:
                waited = True
                req = res.request()
                held.append((res, req))
                yield req
        start = kernel._now
        yield Timeout(kernel, duration)
    finally:
        for res, req in reversed(held):
            if req is None:
                res._release(1)
            else:
                res.release(req)
    return [(start, kernel._now)]


class _FanOut:
    """The units of one contended k-unit :func:`hold`.

    Each unit is one FIFO request.  Its grant starts its own timer, the
    timer releases it, and the last release fires :attr:`done` with the
    spans — the worker threads are modelled without a process each.
    """

    __slots__ = ("resource", "duration", "requests", "spans", "left", "done")

    def __init__(self, resource: Resource, duration: float,
                 units: int) -> None:
        self.resource = resource
        self.duration = duration
        self.spans: List[Optional[Span]] = [None] * units
        #: Units not yet released; -1 once abandoned.
        self.left = units
        self.done = Event(resource.kernel, name=resource.name)
        self.requests: List[Request] = []
        for unit in range(units):
            req = resource.request()
            req.callbacks.append(partial(self._start, unit))
            self.requests.append(req)

    def _start(self, unit: int, _grant: Event) -> None:
        if self.left < 0:
            return
        kernel = self.resource.kernel
        timer = Timeout(kernel, self.duration)
        timer.callbacks.append(partial(self._end, unit, kernel._now))

    def _end(self, unit: int, start: float, _timer: Event) -> None:
        if self.left < 0:
            return
        self.resource.release(self.requests[unit])
        self.spans[unit] = (start, self.resource.kernel._now)
        self.left -= 1
        if self.left == 0:
            self.done.succeed(self.spans)

    def abandon(self) -> None:
        """Cancel queued units and free running ones (no-op once done)."""
        if self.left <= 0:
            return
        self.left = -1
        for unit, req in enumerate(self.requests):
            if self.spans[unit] is None:
                self.resource.release(req)
