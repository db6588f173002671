"""What runs inside a sweep worker process.

Everything here is module-level on purpose: under the ``spawn`` start
method a worker is a fresh interpreter that imports this module by
name, enters the parent's :class:`~repro.flags.Flags` record
(:func:`worker_main`), then resolves each point's function by its
dotted path and calls it (:func:`execute_point`).

A point produces one **entry**: ``(value, obs snapshot)``, built by
:func:`run_point` whichever process runs it.  The sweep engine merges
entries in point order, and the point cache and the run journal store
them whole, so a replayed point merges the same metrics as the run
that computed it.

Exceptions never cross the pool boundary as objects — an exception
whose arguments do not pickle would otherwise wedge the pool with an
opaque ``MaybeEncodingError``.  Instead the worker catches everything
and ships back ``("error", type_name, str(exc), traceback_text)``; the
parent re-raises a :class:`~repro.parallel.sweep.PointError` that names
the point for serial replay.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict
from importlib import import_module
from typing import Any, Optional, Tuple

from ..flags import Flags, override
from ..obs import metrics

#: One point's entry: its value and its deterministic metric snapshot
#: (``None`` with observability off).
Entry = Tuple[Any, Optional[dict]]


def resolve(fn_path: str) -> Any:
    """Resolve ``"package.module:attr"`` (or ``attr.subattr``) to the
    callable it names."""
    module_name, sep, attr_path = fn_path.partition(":")
    if not sep or not attr_path:
        raise ValueError(
            f"point function must be 'module:callable', got {fn_path!r}")
    target: Any = import_module(module_name)
    for part in attr_path.split("."):
        target = getattr(target, part)
    return target


def run_point(fn_path: str, kwargs_items: Tuple[Tuple[str, Any], ...]
              ) -> Entry:
    """Run one point in isolation and return its entry.

    The point executes inside its own metric capture, so its metrics
    neither leak into (nor pick up) the ambient registry of the process
    running it.
    """
    with metrics.capture_point() as cap:
        value = resolve(fn_path)(**dict(kwargs_items))
    return value, cap.snapshot()


def worker_main(conn: Any, flags: Flags) -> None:
    """Supervised-worker entry point: serve tasks off a pipe until told
    to stop, inside the parent's ``flags`` record (a scoped override in
    the parent, like a CLI's ``--check``, is not inherited by spawn).

    The supervisor (:mod:`repro.parallel.supervisor`) spawns one
    process per worker slot with its end of a duplex
    ``multiprocessing.Pipe``.  The loop receives ``(task id, fn path,
    kwargs items)`` tuples, executes each through
    :func:`execute_point`, and ships ``(task id, outcome)`` back.  A
    ``None`` message — or the parent closing its end — shuts the worker
    down cleanly.

    The task id rides along so the parent can attribute an outcome (or
    a death: the kernel closes this pipe when the process dies, which
    is how SIGKILL/OOM is detected) to the exact point that produced
    it, whatever the resubmission history.

    An outcome whose value does not pickle would crash ``send`` — and
    look like a worker death to the parent — so pickling failures are
    converted into ordinary ``("error", ...)`` outcomes (the pickle
    happens before any byte is written, so a failed ``send`` never
    tears the stream).
    """
    with override(**asdict(flags)):
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return  # parent is gone (or tearing down): just exit
            if message is None:
                return
            task_id, fn_path, kwargs_items = message
            outcome = execute_point((fn_path, kwargs_items))
            try:
                conn.send((task_id, outcome))
            except Exception as exc:  # noqa: BLE001 - converted, not hidden
                conn.send((task_id, ("error", type(exc).__name__,
                                     f"shipping the result back failed: "
                                     f"{exc}", traceback.format_exc())))


def execute_point(payload: Tuple[str, Tuple[Tuple[str, Any], ...]]
                  ) -> Tuple[Any, ...]:
    """Run one point; always return a picklable outcome tuple.

    ``("ok", value, obs_snapshot)`` — ``"ok"`` plus the point's entry
    — on success, else ``("error", exc_type_name, message,
    traceback_text)``.  Snapshots are plain dicts, so they cross the
    pool as data.
    """
    fn_path, kwargs_items = payload
    try:
        return ("ok",) + run_point(fn_path, kwargs_items)
    except Exception as exc:  # noqa: BLE001 - shipped back, not hidden
        return ("error", type(exc).__name__, str(exc),
                traceback.format_exc())
