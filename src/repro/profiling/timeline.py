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

    def per_iteration(self, phase: str) -> List[Tuple[int, float]]:
        """``(iteration, duration)`` series for ``phase``: the slowest
        rank's duration per iteration (the critical path, as the paper
        plots)."""
        buckets: Dict[int, List[float]] = defaultdict(list)
        for s in self.samples:
            if s.phase == phase:
                buckets[s.iteration].append(s.duration)
        return [(it, max(buckets[it])) for it in sorted(buckets)]

    def critical_total(self, phase: str) -> float:
        """Sum over iterations of the slowest rank's duration — the
        phase's contribution to the critical path."""
        return sum(d for _, d in self.per_iteration(phase))
