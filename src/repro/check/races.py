"""Happens-before race detection for the simulation kernel.

The simulator's determinism contract says a run is a pure function of
the program — but that only holds if no *result* depends on how the
kernel breaks same-timestamp ties.  Message matching cannot: every
receive names an exact ``(source, tag)`` and MPI's non-overtaking rule
orders the messages of one pair (:mod:`repro.mpi.comm`), so the arrival
order of two sends never decides which receive gets which message.
What is left is state that simulated processes share, and this module
makes its ordering checkable with a vector-clock happens-before tracker
threaded through the event kernel.  It flags one kind of finding:

``shared-state``
    Two happens-before-concurrent accesses to a labelled piece of
    shared simulated state (a cell named in
    :meth:`KernelRaceTracker.access`, such as an OST's served-bytes
    counters), at least one a write.
    State guarded by a :class:`~repro.sim.resources.Resource` is
    automatically ordered — a queued grant's edge ``release →
    succeed(next)`` flows through the event graph, and a grant made on
    the spot joins the clock the last release published — so correctly
    guarded code stays clean.

Design
------
Every happens-before edge in the system flows through
``Event.succeed()/fail() → Kernel.schedule()``: message delivery
(the recv event succeeds with the message), resource grants (release
succeeds the next request), process fork (the bootstrap event) and
join (the process *is* an event).  So the tracker only hooks the
kernel spine:

* ``Kernel.schedule`` stamps the scheduling context's clock onto the
  event (:attr:`Event._vc`);
* event processing sets the ambient clock;
* ``Process`` resume/throw joins the delivering event's clock into the
  process clock and ticks it;
* ``Condition._observe`` accumulates sub-event clocks so ``AllOf``
  joins *all* of its inputs.

Scale note: vector clocks are dicts over dynamically created task ids
(every simulated process, including per-message transfer processes,
gets one), so tracking cost grows with both event count and task
count.  The tracker is built for smoke-/test-scale runs; full quick
figures are exercised through the schedule shaker
(:mod:`repro.check.shake`), which needs no clocks at all.

Findings are *recorded*, not raised mid-run (a race is a property of
the schedule, not a failure of the current one); drain them with
:func:`drain_findings` or assert emptiness with
:func:`assert_no_races`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import RaceError

#: Process-local registry of findings from every tracker in the
#: process; drained by the CLI / ``assert_no_races`` after a run.
_FINDINGS: List["RaceFinding"] = []  # repro: allow[pool-global] — per-process by design; workers ship findings back as data


# -- vector clocks ------------------------------------------------------

def vc_join(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Component-wise max of two clocks (a fresh dict)."""
    out = dict(a)
    for tid, count in b.items():
        if count > out.get(tid, 0):
            out[tid] = count
    return out


def vc_join_inplace(into: Dict[int, int], other: Dict[int, int]) -> None:
    """Component-wise max of ``other`` into ``into``."""
    for tid, count in other.items():
        if count > into.get(tid, 0):
            into[tid] = count


def vc_leq(a: Dict[int, int], b: Dict[int, int]) -> bool:
    """Whether ``a`` happens-before-or-equals ``b``."""
    for tid, count in a.items():
        if count > b.get(tid, 0):
            return False
    return True


def vc_concurrent(a: Dict[int, int], b: Dict[int, int]) -> bool:
    """Whether neither clock is ordered before the other."""
    return not vc_leq(a, b) and not vc_leq(b, a)


def vc_format(vc: Dict[int, int]) -> str:
    """Compact ``{tid:count, ...}`` rendering in tid order."""
    inner = ", ".join(f"{tid}:{vc[tid]}" for tid in sorted(vc))
    return "{" + inner + "}"


# -- findings -----------------------------------------------------------

@dataclass(frozen=True)
class RaceFinding:
    """One detected race."""

    #: Finding kind; ``shared-state`` is the only one.
    kind: str
    #: Simulated time the race was observed at.
    time: float
    #: Human-readable report naming the racing operations and clocks.
    message: str

    def format(self) -> str:
        """The CLI / exception output line."""
        return f"[{self.kind}] t={self.time:.6g}: {self.message}"


def report_finding(finding: RaceFinding) -> None:
    """Append to the process-local findings registry."""
    _FINDINGS.append(finding)


def current_findings() -> List[RaceFinding]:
    """Snapshot of undrained findings (oldest first)."""
    return list(_FINDINGS)


@contextmanager
def captured_findings() -> Iterator[List[RaceFinding]]:
    """File findings reported inside the scope into a fresh list (the
    one yielded) instead of the registry, restored untouched on exit.

    The sweep engine runs every point inside this scope, serially or
    in a worker, so a point's findings travel with its value into the
    point cache and the journal and are re-filed on every replay.
    """
    global _FINDINGS
    previous, _FINDINGS = _FINDINGS, []
    try:
        yield _FINDINGS
    finally:
        _FINDINGS = previous


def drain_findings() -> List[RaceFinding]:
    """Return and clear every recorded finding."""
    out = list(_FINDINGS)
    _FINDINGS.clear()
    return out


def assert_no_races() -> None:
    """Drain the registry; raise :class:`~repro.errors.RaceError` if it
    held anything."""
    findings = drain_findings()
    if findings:
        lines = [f"{len(findings)} race finding(s):"]
        lines.extend(f"  {f.format()}" for f in findings)
        raise RaceError("\n".join(lines))


# -- the kernel-side tracker --------------------------------------------

class _AccessCell:
    """FastTrack-lite history for one shared-state label: the last
    write and every read since it."""

    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: Optional[Tuple[Dict[int, int], str]] = None
        self.reads: List[Tuple[Dict[int, int], str]] = []


class KernelRaceTracker:
    """Vector-clock happens-before tracker for one kernel.

    Attached by :class:`~repro.sim.kernel.Kernel` at construction when
    the ``races`` flag (:mod:`repro.flags`) is on; with it detached
    (the default) every hook site pays one is-None test.

    Task ids: 0 is the *driver* (code running outside any simulated
    process — e.g. job setup before ``kernel.run()``); every
    :class:`~repro.sim.process.Process` gets the next id when it is
    created.
    """

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.findings: List[RaceFinding] = []
        #: Per-process (tid, clock); keyed by the Process object and
        #: kept for the kernel's life (tids must stay unique).
        self._task: Dict[Any, Tuple[int, Dict[int, int]]] = {}
        self._next_tid = 1
        self._driver_vc: Dict[int, int] = {0: 0}
        #: The process currently being resumed (None = driver/ambient).
        self._current: Optional[Any] = None
        #: Clock of the event whose callbacks are currently running.
        self._ambient: Optional[Dict[int, int]] = None
        self._cells: Dict[str, _AccessCell] = {}

    # -- context ---------------------------------------------------------
    def _scheduling_vc(self) -> Dict[int, int]:
        """Snapshot of the active context's clock, ticking it when the
        context is a task (driver or process).  Events scheduled from a
        bare callback inherit the triggering event's clock unticked —
        causally-simultaneous children of one event are treated as
        ordered, a deliberate approximation (library code only sends
        from processes)."""
        cur = self._current
        if cur is not None:
            tid, vc = self._task[cur]
            vc[tid] += 1
            return dict(vc)
        if self._ambient is not None:
            return self._ambient
        self._driver_vc[0] += 1
        return dict(self._driver_vc)

    def current_vc(self) -> Dict[int, int]:
        """Snapshot of the active context's clock (no tick) — what a
        send or state access is stamped with."""
        cur = self._current
        if cur is not None:
            return dict(self._task[cur][1])
        if self._ambient is not None:
            return dict(self._ambient)
        return dict(self._driver_vc)

    def current_task_name(self) -> str:
        """Diagnostics label of the active context."""
        cur = self._current
        if cur is not None:
            return f"process {cur.name or '<anonymous>'!r}"
        if self._ambient is not None:
            return "event callback"
        return "driver"

    # -- kernel hooks ----------------------------------------------------
    def on_schedule(self, event: Any) -> None:
        """Stamp a just-scheduled event with the scheduling context's
        clock, joined with anything accumulated on the event (condition
        observations, replay inheritance)."""
        vc = self._scheduling_vc()
        prior = event._vc
        if prior is not None:
            vc = vc_join(vc, prior)
        event._vc = vc

    def begin_event(self, event: Any) -> None:
        """The kernel is about to run ``event``'s callbacks."""
        self._ambient = event._vc

    def register_process(self, proc: Any) -> None:
        """Assign a fresh task id; the fork edge arrives via the
        process's bootstrap event at first resume."""
        tid = self._next_tid
        self._next_tid += 1
        self._task[proc] = (tid, {tid: 1})

    def begin_resume(self, proc: Any, event: Any) -> None:
        """Join the delivering event's clock into the process clock and
        make the process the active context."""
        tid, vc = self._task[proc]
        evc = event._vc
        if evc is not None:
            vc_join_inplace(vc, evc)
        vc[tid] += 1
        self._current = proc

    def begin_throw(self, proc: Any) -> None:
        """Like :meth:`begin_resume` for interrupt delivery (the
        carrier's clock is the ambient one already)."""
        tid, vc = self._task[proc]
        if self._ambient is not None:
            vc_join_inplace(vc, self._ambient)
        vc[tid] += 1
        self._current = proc

    def end_resume(self) -> None:
        """The process yielded (or finished); back to ambient context."""
        self._current = None

    def note_observe(self, condition: Any, event: Any) -> None:
        """A condition saw one sub-event complete: accumulate its clock
        on the condition so the eventual trigger joins all inputs."""
        evc = event._vc
        if evc is None:
            return
        prior = condition._vc
        condition._vc = dict(evc) if prior is None else vc_join(prior, evc)

    def inherit(self, carrier: Any, source: Any) -> None:
        """Seed a replay carrier with the original event's clock (the
        waiter yielded an already-processed event)."""
        svc = source._vc
        if svc is not None:
            carrier._vc = svc if carrier._vc is None else vc_join(
                carrier._vc, svc)

    def lock_release(self, owner: Any) -> None:
        """A :class:`~repro.sim.resources.Resource` slot was released:
        publish the releasing context's clock on ``owner`` so the *next*
        acquire joins it.  Needed because an uncontended acquire is
        granted immediately — no event flows from the previous holder —
        yet mutual exclusion still orders the two critical sections
        (classic vector-clock lock semantics: Rel(m) writes L_m,
        Acq(m) joins L_m)."""
        vc = self.current_vc()
        prior = owner._release_vc
        owner._release_vc = vc if prior is None else vc_join(prior, vc)

    def lock_acquire(self, owner: Any, event: Any) -> None:
        """Seed a grant event with the owner's published release clock
        (joined by ``on_schedule`` when the grant is scheduled)."""
        vc = owner._release_vc
        if vc is not None:
            event._vc = dict(vc) if event._vc is None else vc_join(
                event._vc, vc)

    def lock_take(self, owner: Any) -> None:
        """A slot of ``owner`` was granted on the spot, with no grant
        event to carry the edge: join the published release clock into
        the active context itself."""
        vc = owner._release_vc
        if vc is None:
            return
        cur = self._current
        if cur is not None:
            vc_join_inplace(self._task[cur][1], vc)
        elif self._ambient is not None:
            # The ambient clock may be shared with the event it came
            # from, so join into a fresh copy.
            self._ambient = vc_join(self._ambient, vc)
        else:
            vc_join_inplace(self._driver_vc, vc)

    # -- shared-state check ----------------------------------------------
    def access(self, label: str, write: bool = True) -> None:
        """Record one access to the shared state called ``label`` by the
        active context and flag happens-before-concurrent conflicts."""
        cell = self._cells.get(label)
        if cell is None:
            cell = self._cells[label] = _AccessCell()
        vc = self.current_vc()
        desc = f"{self.current_task_name()} (vc={vc_format(vc)})"
        lw = cell.last_write
        if write:
            conflicts = ([lw] if lw is not None else []) + cell.reads
            for other_vc, other_desc in conflicts:
                if vc_concurrent(other_vc, vc):
                    self._record(
                        "shared-state",
                        f"unordered write to {label!r}: {desc} is "
                        f"concurrent with prior access by {other_desc}")
                    break
            cell.reads = []
            cell.last_write = (vc, desc)
        else:
            if lw is not None and vc_concurrent(lw[0], vc):
                self._record(
                    "shared-state",
                    f"unordered read of {label!r}: {desc} is concurrent "
                    f"with write by {lw[1]}")
            cell.reads.append((vc, desc))

    def _record(self, kind: str, message: str) -> None:
        finding = RaceFinding(kind, self.kernel.now, message)
        self.findings.append(finding)
        report_finding(finding)

