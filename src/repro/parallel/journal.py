"""Crash-consistent on-disk run journal for sweeps.

A :class:`RunJournal` records every *completed* sweep point of one run
— serial or pooled — the moment its result lands in the parent, so a
SIGKILLed worker, an OOMed pool, a Ctrl-C or a dead parent process
loses at most the points that were still in flight.  ``--resume`` on
the experiments CLI and ``python -m repro.check --chaos N --resume``
open the surviving journal and skip every recorded point, replaying
its whole entry — value, race findings and metric snapshot — exactly
as a :class:`~repro.parallel.pointcache.PointCache` hit would, which
is what makes a resumed run's merged results, race verdicts, figures
and manifests byte-identical to an uninterrupted run's.

Storage mirrors the point cache deliberately:

* entries live under ``<root>/<k[:2]>/<k>.pkl`` where ``k`` is
  :func:`~repro.parallel.pointcache.point_key` — the same
  content-address (code digest | fn | canonical kwargs | the whole
  :class:`~repro.flags.Flags` record), so a journal written by older
  code or under a different record simply never hits;
* entries use the cache's format
  (:func:`~repro.parallel.pointcache.write_entry`), and every write is
  atomic (``tmp`` + ``os.replace``), so a crash mid-write leaves
  either the previous state or the complete new entry, never a torn
  file — unreadable or truncated entries are treated as misses;
* the journal is safe to delete wholesale at any time.

Unlike the cache, a journal is **per run** (one directory per run id
under ``results/.journals/``) and ephemeral: the CLIs reset it at the
start of a fresh run, reuse it under ``--resume``, and discard it after
a clean finish.

**Crash-campaign hook.**  When the ``REPRO_JOURNAL_DIE_AFTER``
environment variable is a positive integer ``K``, the journal SIGKILLs
its own process immediately after the ``K``-th successful ``record``.
This is how ``python -m repro.check --crash`` murders a sweep's parent
at a deterministic point mid-flight; the variable is unset in normal
operation and the hook costs one integer comparison per write.  It
is a drill hook, not one of the flags: it never enters the point key,
so the resumed run hits every entry the killed run wrote.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Optional, TYPE_CHECKING

from .pointcache import point_key, read_entry, write_entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SweepPoint
    from .worker import Entry

#: Default parent directory for per-run journals, relative to the
#: working directory (the repo root in every documented invocation).
DEFAULT_ROOT = Path("results") / ".journals"

#: Crash-campaign hook: SIGKILL this process after N journal writes.
DIE_AFTER_ENV = "REPRO_JOURNAL_DIE_AFTER"


def journal_root(run_id: str, root: Path = DEFAULT_ROOT) -> Path:
    """The journal directory for one run id (not created here)."""
    return Path(root) / run_id


class RunJournal:
    """Append-only store of one run's completed sweep points.

    Parameters
    ----------
    root:
        This run's journal directory (created lazily on first write).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        #: Points replayed from the journal by ``get`` (resume hits).
        self.replays = 0
        #: Points recorded by this process (resume misses it re-ran).
        self.records = 0
        raw = os.environ.get(DIE_AFTER_ENV, "").strip()
        #: Crash-campaign hook (see module docstring); ``None`` off.
        self._die_after: Optional[int] = int(raw) if raw.isdigit() else None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, point: "SweepPoint") -> Optional["Entry"]:
        """One point's journaled entry ``(value, race findings, obs
        snapshot)``, or ``None``.

        A missing, torn or unreadable entry is a miss — the point is
        simply re-executed, so a corrupted journal can cost time but
        never correctness.
        """
        entry = read_entry(self._path(point_key(point)))
        if entry is not None:
            self.replays += 1
        return entry

    def record(self, point: "SweepPoint", entry: "Entry") -> None:
        """Journal one completed point's entry (atomic tmp + replace).

        Safe to call for a point that is already journaled (a hedged
        duplicate, or a cache hit re-recorded on resume): the replace
        just overwrites the entry with identical content.
        """
        write_entry(self._path(point_key(point)), point, entry)
        self.records += 1
        if self._die_after is not None and self.records >= self._die_after:
            # Crash-campaign hook: die *after* the write is durable, so
            # the journal left behind is exactly `records` entries.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def entry_count(self) -> int:
        """Number of journaled points on disk."""
        return len(self._entries())

    def _entries(self) -> list:
        """Every entry path, sorted (directory iteration order is
        file-system dependent; reports must not be)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.rglob("*.pkl"))

    def reset(self) -> None:
        """Drop every entry (a fresh, non-resumed run starts here)."""
        self.discard()

    def discard(self) -> None:
        """Remove the whole journal directory (clean-finish teardown)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*"), reverse=True):
            if path.is_dir():
                if not any(path.iterdir()):  # repro: allow[listdir-order] — emptiness test, order-free
                    path.rmdir()
            else:
                path.unlink()
        if self.root.is_dir() and not any(self.root.iterdir()):  # repro: allow[listdir-order] — emptiness test, order-free
            self.root.rmdir()

    def stats(self) -> str:
        """One-line summary for CLI resume notes."""
        return (f"{self.replays} replayed / {self.records} recorded / "
                f"{self.entry_count()} on disk")
