"""Supervised pool execution: worker-death recovery for sweep points.

The plain ``multiprocessing.Pool`` used by earlier versions of
:func:`~repro.parallel.run_sweep` had a fatal blind spot: a worker
SIGKILLed by the OOM killer either wedges ``pool.map`` forever or
poisons every in-flight task.  This module replaces it with an
explicit supervision loop in the parent:

* **one process per worker slot** — each slot is a ``spawn``-started
  :func:`~repro.parallel.worker.worker_main` process holding one end of
  a duplex pipe.  Slots persist across points (imports amortized), and
  the pipe's task-id protocol attributes every outcome — and every
  death — to the exact point that produced it.
* **death detection** — the kernel closes a dead worker's pipe, which
  wakes ``multiprocessing.connection.wait`` immediately; a liveness
  sweep backstops pathological cases.  The affected point (and only
  that point) is re-executed on a fresh worker.
* **bounded retry** — each death appends an :class:`Attempt` and
  re-executes the point at once (the points are pure functions, so
  immediate re-execution is always safe, and a recovered run's results
  and metrics stay bit-identical to an undisturbed one).  A point whose
  worker dies :data:`MAX_RETRIES` ``+ 1`` times raises
  :class:`~repro.parallel.sweep.PointError` naming every attempt.
* **landing** — every completed point's entry is handed to the
  caller's ``land`` callback the moment it arrives; the sweep engine
  puts it to the run's journal there, which is what makes a killed
  *parent* resumable too.
* **one flag record** — the :class:`~repro.flags.Flags` record in force
  is captured once per sweep and shipped to every worker it spawns.

Entries are returned keyed by point index; the sweep engine merges
them in point order, so supervision never changes any output byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import flags
from ..obs import metrics


#: Re-executions allowed per point after a worker death, so a point
#: runs at most ``MAX_RETRIES + 1`` times.
MAX_RETRIES = 2


@dataclass(frozen=True)
class Attempt:
    """One execution of a sweep point that lost its worker (picklable,
    for :class:`~repro.parallel.sweep.PointError` post-mortems)."""

    number: int
    detail: str

    def format(self) -> str:
        """One post-mortem line."""
        return f"attempt {self.number}: worker-death ({self.detail})"


class _Slot:
    """One live worker process and what it is currently running."""

    __slots__ = ("proc", "conn", "task")

    def __init__(self, proc: Any, conn: Any) -> None:
        self.proc = proc
        self.conn = conn
        #: Point index in flight on this slot (``None`` = idle).
        self.task: Optional[int] = None


def run_supervised(points: Sequence[Any], pending: Sequence[int],
                   jobs: int, land: Callable[[int, Any], None]) -> None:
    """Fan ``pending`` over supervised workers; see the module docstring.

    Calls ``land(index, entry)`` with each point's entry ``(value, obs
    snapshot)`` as it arrives.
    Raises :class:`~repro.parallel.sweep.PointError` on a point that
    raised, or whose worker died more than :data:`MAX_RETRIES` times.  On
    ``KeyboardInterrupt`` (the sweep engine converts SIGINT/SIGTERM to
    it), every worker is killed before the exception propagates —
    completed points have already landed, so nothing is lost.
    """
    import multiprocessing
    from multiprocessing.connection import wait as conn_wait

    from .sweep import PointError
    from .worker import worker_main

    ctx = multiprocessing.get_context("spawn")
    record = flags.current()
    max_slots = min(jobs, len(pending))
    m = metrics.current()

    queue = deque(pending)
    #: point index -> the attempts whose worker died.
    attempts: Dict[int, List[Attempt]] = {i: [] for i in pending}
    slots: List[_Slot] = []

    def spawn_slot() -> _Slot:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=worker_main, args=(child_conn, record),
                           daemon=True)
        proc.start()
        child_conn.close()  # so a worker death turns into EOF here
        slot = _Slot(proc, parent_conn)
        slots.append(slot)
        return slot

    def kill_slot(slot: _Slot) -> None:
        if slot in slots:
            slots.remove(slot)
        try:
            slot.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover - teardown
            pass
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - teardown
            pass

    def teardown() -> None:
        for slot in list(slots):
            kill_slot(slot)

    def count(name: str) -> None:
        if m is not None:
            m.count(name)

    def dispatch(slot: _Slot, index: int) -> None:
        slot.task = index
        point = points[index]
        slot.conn.send((index, point.fn, point.kwargs))

    def handle_death(slot: _Slot) -> None:
        """A worker died; requeue its point, or raise when exhausted."""
        index = slot.task
        detail = (f"worker pid {slot.proc.pid} died "
                  f"(exit code {slot.proc.exitcode})")
        kill_slot(slot)
        if index is None:
            return  # an idle worker died
        count("parallel.worker_deaths")
        history = attempts[index]
        history.append(Attempt(len(history) + 1, detail))
        if len(history) > MAX_RETRIES:
            teardown()
            raise PointError(
                points[index], index,
                f"gave up after {len(history)} attempt(s): last failure "
                f"was worker-death ({detail})", attempts=tuple(history))
        count("parallel.point_retries")
        queue.append(index)

    def handle_outcome(slot: _Slot, task_id: int,
                       outcome: Tuple[Any, ...]) -> None:
        slot.task = None
        if outcome[0] != "ok":
            _status, exc_type, exc_msg, tb_text = outcome
            teardown()
            raise PointError(points[task_id], task_id,
                             f"{exc_type}: {exc_msg}",
                             worker_traceback=tb_text,
                             attempts=tuple(attempts[task_id]))
        land(task_id, outcome[1:])

    try:
        while queue or any(slot.task is not None for slot in slots):
            # Keep every slot busy: reuse idle slots, spawn up to jobs.
            while queue:
                idle = next((s for s in slots if s.task is None), None)
                if idle is None and len(slots) < max_slots:
                    idle = spawn_slot()
                if idle is None:
                    break
                dispatch(idle, queue.popleft())
            by_conn = {s.conn: s for s in slots if s.task is not None}
            # The timeout is the liveness backstop's poll interval.
            ready = conn_wait(list(by_conn), 1.0)
            for conn in ready:
                slot = by_conn[conn]
                try:
                    task_id, outcome = conn.recv()
                except (EOFError, OSError):
                    handle_death(slot)
                else:
                    handle_outcome(slot, task_id, outcome)
            # Liveness backstop: a dead worker whose pipe somehow never
            # reported ready (and holds no buffered result) is a death.
            for slot in list(slots):
                if slot.task is None or slot.proc.is_alive():
                    continue
                try:
                    has_buffered = slot.conn.poll()
                except (OSError, EOFError):
                    has_buffered = False
                if not has_buffered:
                    handle_death(slot)
    except BaseException:  # noqa: BLE001 - teardown, then propagate
        teardown()
        raise
    # Clean shutdown: ask workers to exit, then make sure they did.
    for slot in list(slots):
        try:
            slot.conn.send(None)
        except (OSError, BrokenPipeError):  # pragma: no cover
            pass
    for slot in list(slots):
        slot.proc.join(timeout=2.0)
        kill_slot(slot)
