"""Persistent on-disk cache of sweep-point results.

A point is deterministic: its result is a pure function of (the code,
the function, the kwargs, the switches it ran under).  The cache key
is therefore::

    sha256(code_digest | fn_path | canonical(kwargs) | flags record)

where ``code_digest`` hashes every ``*.py`` file of the installed
``repro`` package — *any* source edit invalidates *every* cached point
(coarse on purpose: cross-module effects like a cost-model tweak must
never serve stale rows) — and the flags record is the whole
:class:`~repro.flags.Flags` in force.  So a ``--check`` run never
"verifies" by reading back an unchecked result, a ``--races`` or
``REPRO_SHAKE=7`` run re-executes every point under the tracker or
the shaken schedule, and a ``REPRO_OBS=1`` run never serves an entry
without a metric snapshot.

Entries live under ``results/.pointcache/<k[:2]>/<k>.pkl`` as pickles
of the point's whole entry (see :mod:`repro.parallel.worker`) — its
value, the race findings it filed and its metric snapshot — replayed
on every hit, so a warm run re-files the cold run's findings and
merges byte-identical metrics.  Unreadable or truncated entries are
treated as misses and rewritten; the cache is safe to delete
wholesale at any time (``python -m repro.experiments --clear-cache``
does exactly that).

The cache is bounded: ``max_entries`` (default
:data:`DEFAULT_MAX_ENTRIES`) caps the number of on-disk results, and a
``put`` that would exceed it first evicts the oldest entries by
modification time (ties broken by path, so eviction order is
deterministic on identical trees).  ``stats()`` renders the
hit/miss/eviction counters for CLI cache reports.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from pathlib import Path
from typing import Any, Optional, TYPE_CHECKING

from .. import flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SweepPoint
    from .worker import Entry

#: Default location, relative to the working directory (the repo root
#: in every documented invocation).
DEFAULT_ROOT = Path("results") / ".pointcache"

#: Default on-disk entry cap.  Generous: a full quick-figure sweep is a
#: few hundred points, so the cap only bites on long-lived working
#: trees accumulating results across many code versions.
DEFAULT_MAX_ENTRIES = 4096


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
    """A stable text rendering of kwargs values for the cache key.

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

    ``sha256(code digest | fn | canonical kwargs | flags record)`` —
    shared by :class:`PointCache` and
    :class:`~repro.parallel.journal.RunJournal`, so both stores
    invalidate on any source edit and never replay an entry recorded
    under a different :class:`~repro.flags.Flags` record.
    """
    digest = hashlib.sha256()
    digest.update(code_digest().encode())
    digest.update(point.fn.encode())
    for name, value in point.kwargs:
        digest.update(f"|{name}={_canonical(value)}".encode())
    digest.update(f"|{flags.current()!r}".encode())
    return digest.hexdigest()


def read_entry(path: Path) -> Optional["Entry"]:
    """The entry stored at ``path``; ``None`` when it is missing, torn
    or unreadable (a miss, never an error or a wrong value)."""
    try:
        with path.open("rb") as fh:
            stored = pickle.load(fh)
        return stored["value"], tuple(stored["findings"]), stored["obs"]
    except (OSError, pickle.UnpicklingError, EOFError, KeyError,
            AttributeError, ImportError, IndexError, TypeError):
        return None


def write_entry(path: Path, point: "SweepPoint", entry: "Entry") -> None:
    """Store one entry at ``path`` atomically (tmp + replace), so a
    crash mid-write leaves the old state or the whole new entry."""
    value, findings, obs = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = {"fn": point.fn, "kwargs": point.kwargs, "value": value,
              "findings": tuple(findings), "obs": obs}
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(stored, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)


class PointCache:
    """Filesystem-backed result cache for :func:`~repro.parallel.run_sweep`.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    max_entries:
        On-disk entry cap; a ``put`` over the cap evicts oldest-first
        by modification time.  ``None`` disables the bound.
    """

    def __init__(self, root: Path = DEFAULT_ROOT,
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        #: Counters for reporting (e.g. ``track.py`` cold/warm split).
        self.hits = 0
        self.misses = 0
        #: Entries removed by the size cap since construction.
        self.evictions = 0

    def key(self, point: "SweepPoint") -> str:
        """The content-address of ``point`` (see :func:`point_key`)."""
        return point_key(point)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, point: "SweepPoint") -> Optional["Entry"]:
        """The point's stored entry ``(value, race findings, obs
        snapshot)``, or ``None`` on a miss (a corrupt or unreadable
        entry is a miss)."""
        from ..obs import metrics

        entry = read_entry(self._path(self.key(point)))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        m = metrics.current()
        if m is not None:
            m.count("parallel.cache.misses" if entry is None
                    else "parallel.cache.hits")
        return entry

    def put(self, point: "SweepPoint", entry: "Entry") -> None:
        """Store one point's entry (atomically: write-then-rename),
        evicting oldest entries first when the cap would be exceeded;
        every later hit replays it whole."""
        path = self._path(self.key(point))
        if self.max_entries is not None and not path.exists():
            self._evict_to(self.max_entries - 1)
        write_entry(path, point, entry)

    def _evict_to(self, budget: int) -> None:
        """Drop oldest entries (mtime, then path) until at most
        ``budget`` remain."""
        entries = self._entries()
        excess = len(entries) - budget
        if excess <= 0:
            return
        from ..obs import metrics

        entries.sort(key=lambda p: (p.stat().st_mtime, p))
        m = metrics.current()
        for path in entries[:excess]:
            path.unlink()
            self.evictions += 1
            if m is not None:
                m.count("parallel.cache.evictions")

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self._entries():
                path.unlink()
                removed += 1
            for sub in sorted(self.root.glob("*"), reverse=True):
                if sub.is_dir() and not any(sub.iterdir()):  # repro: allow[listdir-order] — emptiness test, order-free
                    sub.rmdir()
        return removed

    def _entries(self) -> list:
        """Every entry path, in sorted order (directory iteration order
        is file-system dependent; reports and eviction must not be)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.rglob("*.pkl"))

    def entry_count(self) -> int:
        """Number of cached results on disk."""
        return len(self._entries())

    def stats(self) -> str:
        """One-line counter summary for CLI cache reports."""
        line = f"{self.hits} hit / {self.misses} miss"
        if self.evictions:
            line += f" / {self.evictions} evicted"
        return line
