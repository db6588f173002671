"""The sweep engine: ordered fan-out of independent simulation points.

``run_sweep`` is the single entry point both CLIs go through.  Its
contract:

* **Bit-identical merge** — results come back as a list aligned with
  the input points, whatever the interleaving of worker completions;
  callers build figure rows / campaign verdicts by iterating that list,
  so ``jobs=N`` output is byte-equal to ``jobs=1`` output.
* **No pool at ``jobs=1``** — the serial path calls each point's
  function directly in-process: no pickling, no subprocess, identical
  to the pre-parallel code (the CI default stays exactly as today).
  And no pool is ever created when the journal/cache already cover
  every point: a fully warm run spawns zero processes.
* **Spawn-safe** — workers use the ``spawn`` start method everywhere,
  so they never inherit forked interpreter state; a point must be a
  *module-level* function named by its dotted path and its kwargs must
  be plain picklable values.
* **Flag propagation** — the parent's :class:`~repro.flags.Flags`
  record at call time (``check``, ``shake``, ``obs``) is
  shipped whole to every worker, which serves its points inside it (a
  scoped ``repro.flags.override`` in the parent would otherwise be
  invisible to spawned children).  The same record is hashed whole
  into every point-cache and journal key.
* **Per-point error capture** — a worker failure is shipped back as
  text (never as a possibly-unpicklable exception object) and re-raised
  here as :class:`PointError` naming the function, index and kwargs of
  the failing point, so it can be replayed exactly with ``jobs=1``.
* **Supervision** — at ``jobs > 1`` the fan-out runs under
  :func:`~repro.parallel.supervisor.run_supervised`: a worker death
  (SIGKILL/OOM) is detected and the affected point re-executed, at
  most :data:`~repro.parallel.supervisor.MAX_RETRIES` times; a point
  that exhausts them raises :class:`PointError` naming every attempt.
* **Journaling & resume** — with a journal (an unbounded
  :class:`~repro.parallel.pointcache.PointCache` at
  :func:`~repro.parallel.pointcache.journal_root`), every completed
  point (executed *or* served by the cache) is ``put`` durably the
  moment it lands; a later call with the same journal replays those
  entries and only runs what is missing, which is what backs
  ``--resume`` on both CLIs.
* **Whole-entry replay** — a point yields one entry (value, metric
  snapshot; see :mod:`repro.parallel.worker`), whether it executed
  here, in a worker, or was served by the journal or the cache.  After
  the sweep the snapshots are merged into the metrics registry **in
  point order**, so a warm or resumed run reports the same metrics as
  the cold run that computed them.
* **Clean interruption** — SIGINT (and SIGTERM, when running on the
  main thread) during a sweep tears the workers down and surfaces as
  :class:`~repro.errors.SweepInterrupted` reporting how many of the
  sweep's points had completed and, via ``resume_hint``, the exact
  resume command.  The journal needs no flush: it is written
  point-by-point with atomic replaces.
* **Observability** — with ``REPRO_OBS`` on, every point executes
  inside its own :func:`repro.obs.metrics.capture_point` scope, so the
  merged metrics are bit-identical whatever the job count, cache
  temperature or crash/resume history.  Supervision bookkeeping lands
  under the volatile ``parallel.*`` prefix, which manifests exclude —
  recovery never changes an artifact byte.
"""

from __future__ import annotations

import os
import shlex
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError, SweepInterrupted
from ..obs import metrics
from .worker import Entry, run_point

#: Cap applied by :func:`default_jobs`; sweeps rarely have more points.
_MAX_DEFAULT_JOBS = 8

#: Bucket edges (seconds) for the volatile per-point host-wall
#: histogram ``parallel.point_wall``.
POINT_WALL_EDGES = (0.01, 0.1, 1.0, 10.0, 60.0)


class PointError(ReproError):
    """A sweep point failed.

    The message names the point's function, its index in the sweep and
    its exact kwargs, and includes a copy-pasteable one-liner that
    replays just that point serially (no pool, same bits).

    When the point ran in a worker process the original traceback is
    appended verbatim (the exception object itself never crosses the
    pool boundary — only its rendering does, so unpicklable exception
    args can never wedge the pool).  When supervision retried the point
    after worker deaths, every prior
    :class:`~repro.parallel.supervisor.Attempt` is listed too.
    """

    def __init__(self, point: "SweepPoint", index: int, message: str,
                 worker_traceback: Optional[str] = None,
                 attempts: Tuple[Any, ...] = ()) -> None:
        self.point = point
        self.index = index
        self.message = message
        self.worker_traceback = worker_traceback
        self.attempts = tuple(attempts)
        detail = (f"sweep point #{index} ({point.fn}) failed: {message}\n"
                  f"  replay serially with jobs=1: "
                  f"{point.replay_expression()}")
        for attempt in self.attempts:
            detail += f"\n  {attempt.format()}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)`` by default, which does not
        # match this constructor; rebuild from the original fields.
        return (self.__class__, (self.point, self.index, self.message,
                                 self.worker_traceback, self.attempts))


@dataclass(frozen=True)
class SweepPoint:
    """One independent task of a sweep.

    Attributes
    ----------
    fn:
        Dotted path ``"package.module:function"`` to a module-level
        callable.  Resolved by name inside each worker, which is what
        makes the point spawn-safe.
    kwargs:
        Keyword arguments for the call.  Must contain only picklable
        values (plain scalars, strings, tuples — the audit in
        ``tests/parallel/test_pickle_roundtrip.py`` covers the richer
        result types).
    label:
        Optional human-readable name used in error messages and cache
        listings (defaults to ``fn``).
    """

    fn: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    @classmethod
    def make(cls, fn: str, label: str = "", **kwargs: Any) -> "SweepPoint":
        """Build a point from keyword arguments (sorted for stable
        hashing and cache keys)."""
        return cls(fn=fn, kwargs=tuple(sorted(kwargs.items())), label=label)

    def replay_expression(self) -> str:
        """A copy-pasteable serial replay of this point.

        The generated code is shell-quoted as one argument, so kwargs
        containing quotes, backslashes or newlines round-trip: their
        ``repr`` is valid Python, and :func:`shlex.quote` keeps the
        shell from interpreting any of it.
        """
        module, _, attr = self.fn.partition(":")
        # ``attr`` may be dotted (``Class.method``): import its root.
        root = attr.partition(".")[0]
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        code = f"from {module} import {root}; {attr}({args})"
        return f"python -c {shlex.quote(code)}"


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0``: the usable CPUs,
    capped (sweeps have few points; more workers only cost start-up)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return max(1, min(usable, _MAX_DEFAULT_JOBS))


def _run_serial(point: SweepPoint, index: int) -> Entry:
    """The no-pool path: run the point right here, returning its entry.

    Errors are wrapped in :class:`PointError` (chained, so the original
    traceback is preserved) to keep the failure contract identical
    between serial and parallel runs.
    """
    try:
        return run_point(point.fn, point.kwargs)
    except PointError:
        raise
    except Exception as exc:
        raise PointError(point, index,
                         f"{type(exc).__name__}: {exc}") from exc


def _install_sigterm(state: Dict[str, str]) -> Optional[Tuple[Any]]:
    """Convert SIGTERM into ``KeyboardInterrupt`` for the sweep's
    duration, so a batch scheduler's kill gets the same clean teardown
    and :class:`~repro.errors.SweepInterrupted` report as Ctrl-C.

    Signal handlers can only be installed from the main thread; from
    anywhere else this is a no-op.  Returns an opaque restore token for
    :func:`_restore_sigterm` (``None`` when nothing was installed).
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum: int, frame: Any) -> None:
        state["signame"] = "SIGTERM"
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        return None
    return (previous,)


def _restore_sigterm(token: Optional[Tuple[Any]]) -> None:
    """Undo :func:`_install_sigterm` (no-op for a ``None`` token)."""
    if token is None:
        return
    previous = token[0]
    signal.signal(signal.SIGTERM,
                  previous if previous is not None else signal.SIG_DFL)


def run_sweep(points: Sequence[SweepPoint], *, jobs: int = 1,
              cache: Optional[Any] = None, journal: Optional[Any] = None,
              resume_hint: str = "") -> List[Any]:
    """Run every point and return their results in point order.

    Parameters
    ----------
    jobs:
        ``<= 1`` runs in-process with no pool (the exact serial code
        path); ``> 1`` fans the uncached points across that many
        supervised spawn workers.  ``0`` means :func:`default_jobs`.
    cache:
        Optional :class:`~repro.parallel.pointcache.PointCache`.  Hits
        skip execution entirely; misses are executed and stored.
    journal:
        Optional run journal, a
        :class:`~repro.parallel.pointcache.PointCache` with
        ``max_entries=None``.  Entries already journaled are replayed
        without execution (that is the resume path); everything that
        completes — including cache hits — is ``put`` durably the
        moment it lands, so an interrupted or killed run loses only
        in-flight points.
    resume_hint:
        The exact command that resumes this run; embedded in
        :class:`~repro.errors.SweepInterrupted` on SIGINT/SIGTERM.

    Raises
    ------
    PointError
        If any point fails (or its worker dies more than
        :data:`~repro.parallel.supervisor.MAX_RETRIES` times).
    SweepInterrupted
        On SIGINT/SIGTERM, after tearing the workers down.  With a
        ``journal``, every point completed before the signal is already
        in it.
    """
    if jobs == 0:
        jobs = default_jobs()
    #: point index -> entry (journal/cache replay, serial execution or
    #: worker shipment) — replayed in point order below.
    entries: List[Optional[Entry]] = [None] * len(points)

    # Every entry that lands is journaled first, so an interrupt never
    # counts a point the journal lost.
    def land(i: int, entry: Entry) -> None:
        if journal is not None:
            journal.put(points[i], entry)
        entries[i] = entry

    pending: List[int] = []
    resumed = 0
    cached = 0
    for i, point in enumerate(points):
        if journal is not None:
            entries[i] = journal.get(point)
            if entries[i] is not None:
                resumed += 1
                continue
        if cache is not None:
            entry = cache.get(point)
            if entry is not None:
                cached += 1
                # Journal the hit too: resume must not depend on the
                # cache still being warm (or present) later.
                land(i, entry)
                continue
        pending.append(i)

    m = metrics.current()
    if m is not None:
        m.count("parallel.points_total", len(points))
        if resumed:
            m.count("parallel.points_resumed", resumed)
        if cached:
            m.count("parallel.points_cached", cached)
        if pending:
            m.count("parallel.points_executed", len(pending))

    if pending:
        # (If nothing is pending — journal/cache covered everything —
        # no worker, pool or signal handler is ever created.)
        sig_state: Dict[str, str] = {}
        token = _install_sigterm(sig_state)
        try:
            if jobs <= 1 or len(pending) == 1:
                for i in pending:
                    t0 = time.perf_counter()  # repro: allow[wallclock] — volatile host metric, never ordering
                    entry = _run_serial(points[i], i)
                    wall = time.perf_counter() - t0  # repro: allow[wallclock] — volatile host metric, never ordering
                    land(i, entry)
                    reg = metrics.current()
                    if reg is not None:
                        reg.observe("parallel.point_wall", wall,
                                    POINT_WALL_EDGES)
            else:
                from .supervisor import run_supervised
                run_supervised(points, pending, jobs, land)
        except KeyboardInterrupt:
            completed = sum(entry is not None for entry in entries)
            raise SweepInterrupted(
                completed, len(points),
                sig_state.get("signame", "SIGINT"), resume_hint,
                journaled=journal is not None) from None
        finally:
            _restore_sigterm(token)
        if cache is not None:
            for i in pending:
                cache.put(points[i], entries[i])

    # Point order, not completion order: gauges are last-write-wins, so
    # merge order is part of the bit-identity contract.
    reg = metrics.current()
    if reg is not None:
        for _value, snap in entries:
            if snap:
                reg.merge(snap)
    return [entry[0] for entry in entries]
