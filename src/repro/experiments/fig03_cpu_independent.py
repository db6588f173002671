"""Figure 3 — CPU profiling of independent I/O.

The counterpart of Figure 2 with every process issuing its own
non-contiguous requests: virtually no system time (no shuffle) and an
even larger I/O-wait share, since the OSTs drown in small reads.  The
job is Figure 2's profiled point with ``mode="independent"``.
"""

from __future__ import annotations

from typing import Any

from .common import ExperimentResult
from .fig02_cpu_collective import QUICK_KWARGS, profile

__all__ = ["QUICK_KWARGS", "run"]


def run(iterations: int = 30, bins: int = 16, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 3 (user/sys/wait under independent I/O).

    ``iterations`` is interpreted as the same data-volume knob as
    Figure 2's, so the two figures profile the same request at the same
    scale — only the I/O strategy differs.
    """
    return profile("independent", iterations, bins, jobs=jobs, cache=cache,
                   journal=journal)
