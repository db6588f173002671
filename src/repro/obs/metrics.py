"""The process-local metrics registry behind the ``REPRO_OBS`` switch.

Observability is strictly opt-in on the hot path.  With it off (the
default) the only cost anywhere in the library is a call to
:func:`current` that returns ``None`` followed by an is-None test — no
counter dict, no allocation, nothing.  With it on, instrumented layers
record into one process-local :class:`MetricsRegistry`:

* **counters** — monotonically accumulated numbers (bytes on the wire,
  OST requests, fault-ledger tallies).  Merged by summation.
* **gauges** — last-written values (current block-cache occupancy).
  Merged last-write-wins, applied in merge order.
* **histograms** — fixed bucket edges declared at the call site
  (message-size distribution, per-point wall).  Merged bucket-wise;
  mismatched edges for the same metric name are an error.

**Deterministic vs volatile.**  Most metrics are pure functions of the
simulated schedule and appear in run manifests.  Metrics under the
:data:`VOLATILE_PREFIXES` namespaces (host-side caches, host wall
clock) legitimately differ between ``--jobs 1`` and ``--jobs 4`` or
between cold and warm cache runs, so :meth:`MetricsRegistry.snapshot`
excludes them unless asked — that exclusion is what keeps manifests
byte-identical across pool sizes.

**Pool semantics.**  The registry is process-local by design: each
sweep worker captures a fresh registry around every point
(:func:`capture_point`), ships the deterministic snapshot back inside
the worker outcome tuple, and the parent merges the snapshots **in
point order** — so a fanned-out run's merged metrics are identical to
a serial run's.

**The switch.**  The registry is derived from the ``obs`` field of the
:class:`~repro.flags.Flags` record: it exists exactly when that field
is on.  It is installed at import when ``REPRO_OBS`` asks for it, and
:func:`repro.flags.override` with ``obs=`` installs a fresh one (or
none) for a scope; :func:`override_obs` is that same override.
:func:`capture_point`, :func:`suppressed` and :func:`reset` swap one
registry for another but never turn the switch.  This module imports
nothing from the library but :mod:`repro.flags`, so any layer may
record metrics without creating an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import (Any, ContextManager, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from .. import flags

#: Metric-name prefixes whose values depend on host-side state (shared
#: process caches, wall clock) rather than the simulated schedule.
#: Excluded from deterministic snapshots — and therefore from run
#: manifests — so ``jobs=N`` and warm-cache runs stay byte-identical.
VOLATILE_PREFIXES: Tuple[str, ...] = ("pfs.blockcache.", "parallel.")


def _volatile(name: str) -> bool:
    return name.startswith(VOLATILE_PREFIXES)


class MetricsRegistry:
    """One process's metric state: counters, gauges, histograms.

    Not thread-safe and not meant to be: the simulator is
    single-threaded and each pool worker owns its own registry.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        #: name -> accumulated value.
        self.counters: Dict[str, float] = {}
        #: name -> last written value.
        self.gauges: Dict[str, float] = {}
        #: name -> (bucket edges, per-bucket counts); ``counts`` has
        #: ``len(edges) + 1`` slots, the last one for values above the
        #: top edge.
        self.histograms: Dict[str, Tuple[Tuple[float, ...], List[int]]] = {}

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter called ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge called ``name`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float,
                edges: Sequence[float]) -> None:
        """Record one sample into the fixed-edge histogram ``name``.

        ``edges`` must be the same (sorted, ascending) sequence on every
        call for a given name; a sample lands in the first bucket whose
        edge is >= the value, or in the overflow bucket past the last
        edge.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = (tuple(edges), [0] * (len(edges) + 1))
            self.histograms[name] = hist
        elif hist[0] != tuple(edges):
            raise ValueError(
                f"histogram {name!r} re-declared with different edges: "
                f"{hist[0]} != {tuple(edges)}")
        bucket_edges, counts = hist
        i = 0
        for edge in bucket_edges:
            if value <= edge:
                break
            i += 1
        counts[i] += 1

    # -- snapshot / merge --------------------------------------------------
    def snapshot(self, volatile: bool = False) -> Dict[str, Any]:
        """A canonical, picklable, JSON-ready copy of the registry.

        Keys are sorted, so two registries holding the same values
        serialize identically whatever the recording order.  Volatile
        metrics (see :data:`VOLATILE_PREFIXES`) are excluded unless
        ``volatile=True``.
        """
        keep = (lambda n: True) if volatile else (lambda n: not _volatile(n))
        return {
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters) if keep(k)},
            "gauges": {k: self.gauges[k]
                       for k in sorted(self.gauges) if keep(k)},
            "histograms": {
                k: {"edges": list(self.histograms[k][0]),
                    "counts": list(self.histograms[k][1])}
                for k in sorted(self.histograms) if keep(k)
            },
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters add, gauges overwrite (so applying snapshots in point
        order reproduces the serial last-write), histograms add
        bucket-wise (edges must match).
        """
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name, value)
        for name, hist in snap.get("histograms", {}).items():
            edges = tuple(hist["edges"])
            mine = self.histograms.get(name)
            if mine is None:
                mine = (edges, [0] * (len(edges) + 1))
                self.histograms[name] = mine
            elif mine[0] != edges:
                raise ValueError(
                    f"cannot merge histogram {name!r}: edges differ "
                    f"({mine[0]} != {edges})")
            for i, c in enumerate(hist["counts"]):
                mine[1][i] += c

    def __bool__(self) -> bool:
        """True when anything has been recorded."""
        return bool(self.counters or self.gauges or self.histograms)


# The process-wide registry.  ``None`` when observability is off, which
# is what makes every instrumented hot path a single is-None test.
# Per-process by design — workers ship snapshots back as data (see the
# module docstring).
_REGISTRY: Optional[MetricsRegistry] = (  # repro: allow[pool-global] — per-process by design; workers ship snapshots back as data
    MetricsRegistry() if flags.current().obs else None)


def current() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when observability is off.

    Instrumented call sites do ``m = metrics.current()`` followed by an
    ``if m is not None`` — the whole cost of the subsystem when off.
    """
    return _REGISTRY


@contextmanager
def _swapped(registry: Optional[MetricsRegistry]) -> Iterator[None]:
    """Install ``registry`` for the scope; restore the previous one.

    Turning the switch (``None`` vs a registry) is reserved to
    :func:`repro.flags.override`, its one outside caller, so the
    record's ``obs`` field and this registry never disagree.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    try:
        yield
    finally:
        _REGISTRY = previous


def reset() -> None:
    """Discard all recorded metrics, keeping the flag state as-is.

    The CLIs call this before each run so a manifest reflects exactly
    one experiment, not the whole process lifetime.
    """
    global _REGISTRY
    if _REGISTRY is not None:
        _REGISTRY = MetricsRegistry()


def override_obs(on: Optional[bool]) -> ContextManager[Any]:
    """Scoped observability switch; ``None`` leaves it untouched.

    Entering with ``True`` installs a fresh registry; the previous
    registry (and its contents) is restored on exit.  The same scope as
    ``repro.flags.override(obs=on)``, kept under this name for callers
    that only turn on metrics.
    """
    return nullcontext() if on is None else flags.override(obs=on)


class PointCapture:
    """Handle returned by :func:`capture_point`; see there."""

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self.registry = registry

    def snapshot(self) -> Optional[Dict[str, Any]]:
        """The captured deterministic snapshot (``None`` when off)."""
        return None if self.registry is None else self.registry.snapshot()


@contextmanager
def capture_point() -> Iterator[PointCapture]:
    """Swap in a fresh registry for the duration of one sweep point.

    The sweep engine wraps every point execution in this scope —
    serially in the parent or inside a pool worker — so each point's
    metrics are isolated into one snapshot that merges the same way
    whatever process ran it.  The ambient registry is restored (not
    merged into) on exit; the caller decides when and in what order
    snapshots merge.  A no-op yielding an empty capture when
    observability is off.
    """
    fresh = None if _REGISTRY is None else MetricsRegistry()
    with _swapped(fresh):
        yield PointCapture(fresh)


@contextmanager
def suppressed() -> Iterator[None]:
    """Discard every metric recorded inside the scope.

    Used around work whose *presence* depends on per-process memo state
    (e.g. the chaos campaign's fault-free reference jobs, computed once
    per scenario per process): suppressing it keeps per-point snapshots
    a pure function of the point, so pooled merges equal serial ones.
    """
    with _swapped(None if _REGISTRY is None else MetricsRegistry()):
        yield
