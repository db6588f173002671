"""Deterministic multiprocess fan-out of independent simulation points.

Role
----
Every figure in the paper is a *sweep*: a list of fully independent,
fully deterministic simulated jobs (process counts in Figure 10, fault
rates in Figure 14, corruption rates in Figure 15, seeds x rates x
scenarios in the chaos campaign).  Each job builds its own
:class:`~repro.sim.Kernel` and :class:`~repro.cluster.Machine`, so
nothing is shared between points — which makes the sweep embarrassingly
parallel *without touching the simulated protocols or their bit-exact
outputs*.

This package is the engine that exploits that:

* :class:`~repro.parallel.sweep.SweepPoint` — one picklable task: a
  dotted ``"module:function"`` path plus keyword arguments of plain
  picklable values.
* :func:`~repro.parallel.sweep.run_sweep` — executes a list of points
  either in-process (``jobs=1``, the CI default: no pool, no pickling,
  exactly the pre-parallel code path) or across spawn-safe supervised
  workers, and returns results **in point order** so every figure row,
  chaos verdict and ledger summary is bit-identical to the serial run.
* :mod:`~repro.parallel.supervisor` — the supervised execution loop
  behind ``jobs > 1``: detects worker deaths (SIGKILL/OOM) and
  re-executes the affected point, at most
  :data:`~repro.parallel.supervisor.MAX_RETRIES` times.
* :class:`~repro.parallel.sweep.PointError` — raised when a point
  fails (or its worker dies too often); it names the point
  (function, index, kwargs) and every prior attempt so the failure
  replays exactly with ``jobs=1``.
* :class:`~repro.parallel.pointcache.PointCache` — the one on-disk
  store of point entries, keyed by the point's function, canonical
  kwargs, the flags record and a digest of the package source (any
  source edit invalidates everything), with atomic writes and torn
  entries read as misses.  Bounded, it is the persistent point cache
  (``results/.pointcache/``) that makes re-running an unchanged sweep
  near-instant.  Unbounded, at
  :func:`~repro.parallel.pointcache.journal_root`, it is a run's
  crash-consistent journal that backs ``--resume`` on both CLIs: a
  SIGKILLed worker, a dead parent or a Ctrl-C loses only in-flight
  points, and the resumed run's merged output is byte-identical to an
  uninterrupted one.

Paper mapping
-------------
The paper's evaluation machinery itself, not a simulated protocol: the
same split Kang et al. exploit with intra-node aggregation (concurrency
*beneath* an unchanged collective protocol) applied to the harness that
reproduces the figures.
"""

from __future__ import annotations

from ..errors import SweepInterrupted
from .pointcache import (JOURNAL_ROOT, PointCache, code_digest, journal_root,
                         point_key)
from .supervisor import MAX_RETRIES, Attempt
from .sweep import PointError, SweepPoint, default_jobs, run_sweep

__all__ = [
    "Attempt",
    "JOURNAL_ROOT",
    "MAX_RETRIES",
    "PointCache",
    "PointError",
    "SweepInterrupted",
    "SweepPoint",
    "code_digest",
    "default_jobs",
    "journal_root",
    "point_key",
    "run_sweep",
]
