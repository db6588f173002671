"""The discrete-event simulation kernel.

:class:`Kernel` owns the virtual clock and the event queue.  Everything in
the library — network transfers, disk service, CPU occupancy, MPI ranks —
is expressed as processes and events scheduled on one kernel instance, so
a whole "cluster run" is a single-threaded, fully deterministic replay.

Determinism contract
--------------------
Events scheduled for the same timestamp are processed in the order they
were scheduled (FIFO via a monotonically increasing sequence number).
Two runs of the same program produce bit-identical event orders and
therefore identical timings and results.

Schedule shaking
----------------
The FIFO tie-break is part of the model's semantics (e.g. FIFO resource
grants under contention), but no *data result* may depend on it.  To
make that checkable, a kernel constructed while
:mod:`repro.flags` sets a ``shake`` seed replaces the raw sequence
number in each queue entry with a seeded bijective permutation of it:
same-time entries are then popped in a pseudo-random but fully
deterministic order, while causal order is untouched (an
event scheduled while processing another still runs after it, because
time never goes backwards and the front slot only holds the global
minimum).  The permutation is a bijection over 63 bits, so tie-break
keys stay unique and comparisons never reach the event objects.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Generator, Iterable, List, Optional, Set, Tuple

from .. import flags
from ..errors import DeadlockError
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

#: 63-bit mask for the shaken tie-break permutation (queue keys stay
#: positive machine ints).
_SHAKE_MASK = (1 << 63) - 1


class Kernel:
    """A deterministic discrete-event simulator.

    Typical use::

        k = Kernel()

        def producer(k):
            yield k.timeout(1.0)
            return "done"

        p = k.process(producer(k))
        k.run()
        assert k.now == 1.0 and p.value == "done"
    """

    #: Fixed attribute set: the kernel sits on the hot path of every
    #: simulated event, and slotted access is measurably faster than a
    #: dict lookup (``__weakref__`` kept so watchers may weakly hold a
    #: kernel just like the kernel weakly holds them).
    __slots__ = ("_now", "_queue", "_seq", "_next", "_active_processes",
                 "_live_processes", "_deadlock_watchers", "_tiebreak",
                 "__weakref__")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Schedule-shaker seed; ``None`` keeps the FIFO tie-break.
        self._tiebreak = flags.current().shake
        #: Front-slot buffer: when non-empty it holds the *global
        #: minimum* pending entry (strictly less than the heap head).
        #: The dominant scheduling pattern — an event processed now
        #: scheduling its successor for the immediate future — then
        #: costs one comparison instead of a heappush + heappop pair.
        self._next: Optional[Tuple[float, int, Event]] = None
        #: Number of live (not yet finished) processes; used for deadlock
        #: detection when the queue drains.
        self._active_processes = 0
        #: The live processes themselves, for the deadlock report's
        #: per-process blocked-state lines.
        self._live_processes: Set[Process] = set()
        #: Weakly-held objects (communicators, resources) consulted for
        #: extra blocked-state lines when a deadlock is diagnosed.  Zero
        #: cost until the failure path runs.
        self._deadlock_watchers: List["weakref.ref"] = []

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value=value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: fires when any event in ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Wrap ``generator`` as a :class:`Process` and start it now."""
        return Process(self, generator, name=name)

    # -- scheduling (used by Event/Process internals) ----------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered ``event`` for processing at ``now + delay``.

        The entry lands in the front slot when it is the new global
        minimum (tie-break keys are unique, so comparisons never reach
        the event object); otherwise it goes to the heap.  The
        tie-break key is the raw sequence number (FIFO) or, under the
        schedule shaker, a seeded bijective permutation of it.
        """
        self._seq += 1
        seq = self._seq
        tiebreak = self._tiebreak
        if tiebreak is not None:
            # splitmix64-style mix, truncated to 63 bits: odd-constant
            # multiplies and the xor keep it a bijection, so no two
            # entries collide and FIFO determinism is merely permuted.
            x = (seq * 0x9E3779B97F4A7C15) & _SHAKE_MASK
            x ^= (tiebreak * 0xBF58476D1CE4E5B9) & _SHAKE_MASK
            seq = (x * 0x94D049BB133111EB + 1) & _SHAKE_MASK
        entry = (self._now + delay, seq, event)
        head = self._next
        if head is None:
            queue = self._queue
            if queue and queue[0] < entry:
                heapq.heappush(queue, entry)
            else:
                self._next = entry
        elif entry < head:
            heapq.heappush(self._queue, head)
            self._next = entry
        else:
            heapq.heappush(self._queue, entry)

    # -- execution ---------------------------------------------------------
    def run(self) -> float:
        """Run until the queue drains.

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if the queue drains while processes are still alive (they are
        waiting for events nobody will trigger).  A cancelled timer
        (:meth:`~repro.sim.events.Timeout.cancel`) is dropped without
        moving the clock.
        """
        queue = self._queue
        pop = heapq.heappop
        # Hot loop: one Python call per event is measurable at millions
        # of events per run.  The front slot is read through the
        # instance (``schedule`` rebinds it).
        while True:
            entry = self._next
            if entry is not None:
                self._next = None
            elif queue:
                entry = pop(queue)
            else:
                break
            now, _seq, event = entry
            callbacks = event.callbacks
            if callbacks is None:
                continue  # cancelled timer
            self._now = now
            event.callbacks = None  # mark processed
            if len(callbacks) == 1:
                # Fast path: the overwhelmingly common case is one
                # waiter (a single process blocked on the event).
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event._defused:
                # An unhandled failure: abort the whole simulation loudly.
                raise event._value
        if self._active_processes > 0:
            raise DeadlockError(self._deadlock_message())
        return self._now

    # -- deadlock diagnostics ----------------------------------------------
    def watch_deadlocks(self, watcher: Any) -> None:
        """Register an object whose ``describe_blocked()`` lines should
        appear in :class:`~repro.errors.DeadlockError` messages.

        Held weakly: watchers (communicators, resources) may die before
        the kernel.  Cost is one list append at registration; nothing
        is consulted until a deadlock is actually being reported.
        """
        self._deadlock_watchers.append(weakref.ref(watcher))

    def _deadlock_message(self, max_lines: int = 24) -> str:
        """Compose the deadlock report: the headline, each live
        process's name and the event it is waiting on, then whatever
        the registered watchers know (per-rank pending receives with
        tags, wait-for cycles)."""
        lines = [
            f"simulation deadlocked at t={self._now}: "
            f"{self._active_processes} process(es) still waiting"
        ]
        blocked = sorted(self._live_processes,
                         key=lambda p: (p.name or "", id(p)))
        for proc in blocked[:max_lines]:
            target = proc.waiting_on
            waiting = repr(target) if target is not None else "nothing (never resumed)"
            lines.append(f"  process {proc.name or '<anonymous>'!r} "
                         f"waiting on {waiting}")
        if len(blocked) > max_lines:
            lines.append(f"  ... and {len(blocked) - max_lines} more process(es)")
        for ref in self._deadlock_watchers:
            watcher = ref()
            if watcher is None:
                continue
            for line in watcher.describe_blocked():
                lines.append(f"  {line}")
        return "\n".join(lines)

    @property
    def queue_size(self) -> int:
        """Number of pending scheduled events (diagnostics only)."""
        return len(self._queue) + (self._next is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Kernel t={self._now} queued={self.queue_size}>"
