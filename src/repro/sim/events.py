"""Event primitives for the discrete-event kernel.

The design follows the classic SimPy structure: an :class:`Event` is a
one-shot object that is *triggered* (given a value or an exception) and
later *processed* by the kernel, at which point its callbacks run.
Processes (see :mod:`repro.sim.process`) communicate with the kernel by
yielding events; the kernel resumes them when the event is processed.

Only the small set of primitives the library needs is implemented:

* :class:`Event` — manually triggered, e.g. message-arrival notification.
* :class:`Timeout` — triggered automatically after a simulated delay.
* :class:`AllOf` / :class:`AnyOf` — composite conditions over events.

All public classes are deterministic: no wall-clock, no randomness.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel

#: Sentinel stored in ``Event._value`` before the event is triggered.
PENDING = object()


class Event:
    """A one-shot occurrence inside a simulation.

    An event has three observable stages:

    1. *pending* — freshly created, nothing happened yet;
    2. *triggered* — :meth:`succeed` or :meth:`fail` was called, the event
       carries a value (or exception) and sits in the kernel queue;
    3. *processed* — the kernel popped it and ran its callbacks.

    Parameters
    ----------
    kernel:
        The owning :class:`~repro.sim.kernel.Kernel`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("kernel", "callbacks", "name", "_value", "_ok", "_defused")

    def __init__(self, kernel: "Kernel", name: Optional[str] = None) -> None:
        self.kernel = kernel
        #: Callables invoked with this event once it is processed.  Set to
        #: ``None`` after processing, which doubles as the processed flag.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.name = name
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully (not failed)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        For failed events this is the exception instance.
        """
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.kernel.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.  If no process handles it, the kernel propagates it out of
        :meth:`~repro.sim.kernel.Kernel.run` (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.kernel.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not crash."""
        self._defused = True

    @property
    def defused(self) -> bool:
        """True if a failure of this event should not abort the run."""
        return self._defused

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` simulated seconds from now.

    The canonical way for a process to consume simulated time::

        yield kernel.timeout(1.5)
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None,
                 name: Optional[str] = None) -> None:
        if not 0.0 <= delay < math.inf:
            # Also rejects NaN, which fails every comparison.
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}")
        super().__init__(kernel, name=name)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        kernel.schedule(self, delay=self.delay)

    def cancel(self) -> None:
        """Withdraw the timer: the kernel drops it unprocessed, without
        moving the clock, and its callbacks never run (a no-op once it
        has been processed)."""
        self.callbacks = None


class Condition(Event):
    """Base for composite events built from several sub-events.

    The condition triggers when :meth:`_check` says so.  Failures of any
    sub-event fail the condition immediately (first failure wins).
    """

    __slots__ = ("events", "_done")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]) -> None:
        super().__init__(kernel)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.kernel is not kernel:
                raise SimulationError("condition mixes events from different kernels")
        self._done = 0
        for ev in self.events:
            if ev.processed:
                self._observe(ev)
            else:
                assert ev.callbacks is not None
                ev.callbacks.append(self._observe)
        if not self.events and not self.triggered:
            # Empty condition is immediately satisfied.
            self.succeed(self._collect())

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._done += 1
        if self._check():
            self.succeed(self._collect())

    def _collect(self) -> Any:
        """Value of the condition once satisfied (list of sub-values)."""
        return [ev.value for ev in self.events if ev.triggered and ev.ok]

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Triggers once *all* sub-events have been processed successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._done == len(self.events)


class AnyOf(Condition):
    """Triggers as soon as *any* sub-event is processed successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._done >= 1
