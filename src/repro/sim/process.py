"""Coroutine processes for the discrete-event kernel.

A :class:`Process` wraps a Python generator.  The generator *yields*
:class:`~repro.sim.events.Event` instances to wait on them; when the event
is processed the kernel resumes the generator with the event's value (or
throws the event's exception into it).  A process is itself an event that
triggers with the generator's ``return`` value, so processes can wait on
each other::

    def child(k):
        yield k.timeout(2)
        return 42

    def parent(k):
        value = yield k.process(child(k))
        assert value == 42

Nothing outside a process stops or redirects it: it runs until its
generator returns or raises.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel


class Process(Event):
    """A running simulated activity.

    Parameters
    ----------
    kernel:
        Owning kernel.
    generator:
        The coroutine body.  It must yield :class:`Event` objects only.
    name:
        Optional label for diagnostics.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, kernel: "Kernel", generator: Generator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(kernel, name=name or getattr(generator, "__name__", None))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        kernel._active_processes += 1
        kernel._live_processes.add(self)
        # Bootstrap: resume the generator for the first time "immediately"
        # (at the current timestamp, after already-queued events).
        start = Event(kernel, name=self.name)
        start.callbacks.append(self._resume)  # type: ignore[union-attr]
        start.succeed()

    # -- state -------------------------------------------------------------
    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently blocked on (None when
        finished or between resumptions); used by deadlock reports."""
        return self._waiting_on

    # -- internals -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:  # processed events always carry _ok
                next_event = self._generator.send(event._value)
            else:
                event.defuse()
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
        except BaseException as error:
            self._crash(error)
        else:
            self._wait_on(next_event)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._crash(SimulationError(
                f"{self!r} yielded {target!r}; processes may only yield events"
            ))
            return
        callbacks = target.callbacks
        if callbacks is None:  # already processed
            # The event already fired; resume on a fresh carrier so the
            # process continues at the current time without recursion.
            carrier = Event(self.kernel, name="replay")
            carrier._ok = target.ok
            carrier._value = target._value
            if not target.ok:
                target.defuse()
            carrier.callbacks.append(self._resume)  # type: ignore[union-attr]
            self.kernel.schedule(carrier)
            self._waiting_on = carrier
            return
        callbacks.append(self._resume)
        self._waiting_on = target

    def _finish(self, value: Any) -> None:
        self.kernel._active_processes -= 1
        self.kernel._live_processes.discard(self)
        self.succeed(value)

    def _crash(self, error: BaseException) -> None:
        self.kernel._active_processes -= 1
        self.kernel._live_processes.discard(self)
        self.fail(error)
