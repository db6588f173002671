"""Per-iteration phase timing (the measurement behind Figure 1).

Two-phase collective I/O proceeds in iterations bounded by the
collective buffer size; the paper profiles the *read* and *shuffle*
time of every iteration separately.  :class:`PhaseTimeline` collects
``(iteration, phase, duration)`` samples from the I/O layer and exposes
the per-iteration series plus phase totals.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ReproError
from ..obs import metrics


@dataclass(frozen=True)
class PhaseSample:
    """One timing sample emitted by the I/O layer."""

    rank: int
    iteration: int
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds."""
        return self.end - self.start


class PhaseTimeline:
    """Accumulates phase samples across ranks and iterations."""

    def __init__(self) -> None:
        self.samples: List[PhaseSample] = []

    def record(self, rank: int, iteration: int, phase: str,
               start: float, end: float) -> None:
        """Add one sample (``end >= start`` required)."""
        if end < start:
            raise ReproError(f"phase ends before it starts: [{start}, {end}]")
        self.samples.append(PhaseSample(rank, iteration, phase, start, end))
        m = metrics.current()
        if m is not None:
            m.count(f"sim.phase.{phase}", end - start)

    def per_iteration(self, phase: str, reduce: str = "max"
                      ) -> List[Tuple[int, float]]:
        """``(iteration, duration)`` series for ``phase``.

        Multiple ranks contribute to the same iteration; ``reduce``
        selects how they merge: ``"max"`` (the critical path, as the
        paper plots), ``"sum"`` or ``"mean"``.
        """
        if reduce not in ("max", "sum", "mean"):
            raise ReproError(f"unknown reduce {reduce!r}")
        buckets: Dict[int, List[float]] = defaultdict(list)
        for s in self.samples:
            if s.phase == phase:
                buckets[s.iteration].append(s.duration)
        out = []
        for it in sorted(buckets):
            vals = buckets[it]
            if reduce == "max":
                v = max(vals)
            elif reduce == "sum":
                v = sum(vals)
            else:
                v = sum(vals) / len(vals)
            out.append((it, v))
        return out

    def critical_total(self, phase: str) -> float:
        """Sum over iterations of the slowest rank's duration — the
        phase's contribution to the critical path."""
        return sum(d for _, d in self.per_iteration(phase, reduce="max"))
