"""The one on-disk store of sweep-point entries: the point cache and
each run's journal.

A point is deterministic: its result is a pure function of (the code,
the function, the kwargs, the switches it ran under).  The entry key
is therefore::

    sha256(code_digest | fn_path | canonical(kwargs) | flags record)

where ``code_digest`` hashes every ``*.py`` file of the installed
``repro`` package — *any* source edit invalidates *every* entry
(coarse on purpose: cross-module effects like a cost-model tweak must
never serve stale rows) — and the flags record is the whole
:class:`~repro.flags.Flags` in force.  So a ``--check`` run never
"verifies" by reading back an unchecked result, a ``REPRO_SHAKE=7``
run re-executes every point under the shaken schedule, and a
``REPRO_OBS=1`` run never serves an entry without a metric snapshot.

Entries live under ``<root>/<k[:2]>/<k>.pkl`` as pickles of the
point's whole entry (see :mod:`repro.parallel.worker`) — its value and
its metric snapshot — replayed on every hit, so a warm or resumed run
merges byte-identical metrics.  Each write goes to a temp file of its
own and is renamed into place.  A missing, torn or unreadable entry is
a miss, so a corrupted store costs time but never correctness, and
deleting a store is always safe.

:class:`PointCache` has two retention policies:

* **Bounded: the point cache** (``results/.pointcache/``).  A ``put``
  of a new key over ``max_entries`` (default
  :data:`DEFAULT_MAX_ENTRIES`) first evicts the oldest entries: by
  (modification time, path) as one directory walk found them, then in
  put order.  ``python -m repro.experiments --clear-cache`` removes it.
* **Unbounded: a run's journal** (``max_entries=None`` at
  :func:`journal_root`, i.e. ``results/.journals/<run id>/``).  A sweep
  puts every completed point the moment it lands, so a SIGKILLed
  worker, a Ctrl-C or a dead parent loses only the points in flight.
  The CLIs clear it before a fresh run and after a clean finish; under
  ``--resume`` its entries replay exactly as cache hits would.

**Crash-drill hook.**  With ``REPRO_JOURNAL_DIE_AFTER=K`` (a positive
integer) in the environment, a store SIGKILLs its process right after
its ``K``-th durable ``put``: ``python -m repro.check crash`` kills a
sweep's parent at a deterministic point this way.  A sweep puts each
point to its journal before its cache, so the journal reaches ``K``
first.  The hook is not one of the flags and never enters the key, so
the resumed run hits every entry the killed run wrote.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import shutil
import signal
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, TYPE_CHECKING

from .. import flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SweepPoint
    from .worker import Entry

#: Default point-cache location, relative to the working directory (the
#: repo root in every documented invocation).
DEFAULT_ROOT = Path("results") / ".pointcache"

#: Default parent directory for per-run journals, likewise relative.
JOURNAL_ROOT = Path("results") / ".journals"

#: Default on-disk entry cap.  Generous: a full quick-figure sweep is a
#: few hundred points, so the cap only bites on long-lived working
#: trees accumulating results across many code versions.
DEFAULT_MAX_ENTRIES = 4096

#: Crash-drill hook: SIGKILL this process after N puts to one store.
DIE_AFTER_ENV = "REPRO_JOURNAL_DIE_AFTER"


def journal_root(run_id: str, root: Path = JOURNAL_ROOT) -> Path:
    """The journal directory for one run id (not created here)."""
    return Path(root) / run_id


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """SHA-256 over the sources of the installed ``repro`` package.

    Computed once per process (~180 files, a few milliseconds).  File
    order is the sorted relative path, and each file contributes its
    path and contents, so renames invalidate too.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _canonical(value: Any) -> str:
    """A stable text rendering of kwargs values for the entry key.

    Tuples and lists render identically (CLI round-trips turn tuples
    into lists); floats use ``repr`` (exact); everything else must
    already be a plain scalar/string for the point to be picklable.
    """
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{k}:{_canonical(v)}" for k, v in items) + "}"
    if isinstance(value, float):
        return repr(value)
    return f"{type(value).__name__}={value!r}"


def point_key(point: "SweepPoint") -> str:
    """The content-address of one sweep point.

    ``sha256(code digest | fn | canonical kwargs | flags record)``, so
    every store invalidates on any source edit and never replays an
    entry recorded under a different :class:`~repro.flags.Flags`
    record.
    """
    digest = hashlib.sha256()
    digest.update(code_digest().encode())
    digest.update(point.fn.encode())
    for name, value in point.kwargs:
        digest.update(f"|{name}={_canonical(value)}".encode())
    digest.update(f"|{flags.current()!r}".encode())
    return digest.hexdigest()


def write_entry(path: Path, point: "SweepPoint", entry: "Entry") -> None:
    """Store one entry at ``path`` atomically: write a temp file of this
    call's own in the same directory, then rename it into place, so a
    crash mid-write leaves the old state or the whole new entry and a
    concurrent writer of the same key never shares the temp file."""
    value, obs = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = {"fn": point.fn, "kwargs": point.kwargs, "value": value,
              "obs": obs}
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(stored, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


class PointCache:
    """Filesystem-backed store of sweep-point entries for
    :func:`~repro.parallel.run_sweep`: the point cache, or (with
    ``max_entries=None`` at :func:`journal_root`) a run's journal.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).
    max_entries:
        On-disk entry cap; a ``put`` of a new key over the cap evicts
        oldest-first.  ``None`` disables the bound.
    """

    def __init__(self, root: Path = DEFAULT_ROOT,
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        #: Counters for reporting (e.g. ``track.py`` cold/warm split,
        #: the crash drills' resume accounting).
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Entries removed by the size cap since construction.
        self.evictions = 0
        #: Capped stores only: every entry path, oldest first (a dict
        #: used as an ordered set); built by the first capped ``put``.
        self._index: Optional[Dict[Path, None]] = None
        raw = os.environ.get(DIE_AFTER_ENV, "").strip()
        #: Crash-drill hook (see module docstring); ``None`` when off.
        self._die_after: Optional[int] = int(raw) if raw.isdigit() else None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, point: "SweepPoint") -> Optional["Entry"]:
        """The point's stored entry ``(value, obs snapshot)``, or
        ``None`` on a miss: a missing, torn or unreadable entry is a
        miss, never an error or a wrong value."""
        path = self._path(point_key(point))
        try:
            with path.open("rb") as fh:
                stored = pickle.load(fh)
            entry = stored["value"], stored["obs"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                AttributeError, ImportError, IndexError, TypeError,
                ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, point: "SweepPoint", entry: "Entry") -> None:
        """Store one point's entry (atomically: write-then-rename),
        evicting oldest entries first when a new key would exceed the
        cap; every later hit replays it whole.  Safe to call for a key
        already stored: the rename overwrites it."""
        path = self._path(point_key(point))
        if self.max_entries is not None:
            index = self._oldest_first()
            while path not in index and len(index) >= self.max_entries:
                oldest = next(iter(index))
                del index[oldest]
                oldest.unlink(missing_ok=True)
                self.evictions += 1
            index.pop(path, None)  # a rewrite becomes the newest entry
            index[path] = None
        write_entry(path, point, entry)
        self.puts += 1
        if self._die_after is not None and self.puts >= self._die_after:
            # Crash-drill hook: die *after* the write is durable, so
            # every put so far is on disk.
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def _oldest_first(self) -> Dict[Path, None]:
        """The eviction index, built by one directory walk on first use:
        entries sorted by (modification time, path), so eviction order
        is deterministic on identical trees."""
        if self._index is None:
            entries = self._entries()
            entries.sort(key=lambda p: (p.stat().st_mtime, p))
            self._index = dict.fromkeys(entries)
        return self._index

    def clear(self) -> int:
        """Remove the store directory and everything under it (stray
        temp files included); returns how many entries it held."""
        removed = len(self._entries())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        self._index = None
        return removed

    def _entries(self) -> list:
        """Every entry path, in sorted order (directory iteration order
        is file-system dependent; reports and eviction must not be)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.rglob("*.pkl"))

    def entry_count(self) -> int:
        """Number of stored entries on disk."""
        return len(self._entries())

    def stats(self) -> str:
        """One-line counter summary for CLI cache reports."""
        line = f"{self.hits} hit / {self.misses} miss"
        if self.evictions:
            line += f" / {self.evictions} evicted"
        return line
