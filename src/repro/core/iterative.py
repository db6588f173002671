"""Iterative collective computing (the paper's stated future work).

The conclusion of the paper names "support [for] the iterative
operations" as future work: scientific analyses rarely run once — they
sweep a time axis (per-timestep statistics, moving windows, convergence
loops), re-reading a translated version of the same access pattern each
step.

:class:`IterativeAnalysis` runs a sequence of such steps and amortizes
the planning: the first step pays the full offset-list exchange; every
later step whose per-rank requests are an exact byte-translation of the
first step's reuses the cached plan, shifted — no communication, which
is precisely what a real implementation would do by caching the
flattened offsets and re-basing them.  Non-translated steps fall back
to a fresh exchange transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from ..dataspace import Subarray, flatten_subarray
from ..errors import CollectiveComputingError
from ..io.twophase import make_plan
from ..mpi import RankContext
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .metadata import CCStats
from .object_io import ObjectIO
from .plan_cache import PlanMemo, translation_delta
from .runtime import CCResult, cc_read_compute

__all__ = ["IterativeAnalysis", "IterativeStats", "sliding_windows",
           "translation_delta"]


@dataclass
class IterativeStats:
    """Bookkeeping for one iterative run: its step count, and the plan
    exchanges and reuses its :class:`PlanMemo` counted."""

    memo: PlanMemo
    steps: int = 0

    @property
    def plans_exchanged(self) -> int:
        """Steps that paid a full offset exchange."""
        return self.memo.exchanges

    @property
    def plans_reused(self) -> int:
        """Steps that reused a translated plan."""
        return self.memo.reuses


class IterativeAnalysis:
    """Run one operator over a sequence of per-step regions.

    Parameters
    ----------
    oio:
        The step-0 object I/O (its ``sub`` is the rank's first region).
    file:
        The dataset file.

    Use :meth:`run` from inside a rank process::

        analysis = IterativeAnalysis(file, oio)
        results = yield from analysis.run(ctx, step_regions)
    """

    def __init__(self, file: PFSFile, oio: ObjectIO) -> None:
        if oio.block:
            raise CollectiveComputingError(
                "iterative analysis drives the CC pipeline; block=True "
                "is the one-shot traditional path"
            )
        self.file = file
        self.oio = oio
        self.memo = PlanMemo()
        self.stats = IterativeStats(self.memo)

    def run(self, ctx: RankContext, regions: Sequence[Subarray],
            timeline: Optional[PhaseTimeline] = None,
            stats: Optional[CCStats] = None) -> Generator:
        """Execute one CC pass per region; returns the list of
        :class:`~repro.core.runtime.CCResult` in step order.

        Collective: all ranks call it with region sequences of the same
        length (each rank passes *its own* per-step regions).
        """
        # Reuse requires every rank to observe a translation; ranks vote
        # with the same deterministic criterion on their own runs, and
        # the run lists of all ranks shift together when the global
        # pattern is a translation, so the decision is coherent without
        # extra communication for a rigid time-axis sweep.
        grid = (self.oio.spec.file_offset, self.oio.spec.itemsize)
        results: List[CCResult] = []
        for sub in regions:
            step_oio = self.oio.for_rank(sub)
            runs = flatten_subarray(step_oio.spec, sub)
            plan = self.memo.lookup(runs, step_oio.spec.itemsize)
            if plan is None:
                plan = yield from make_plan(ctx, runs, self.file,
                                            step_oio.hints, grid)
                self.memo.store(runs, plan)
            result = yield from cc_read_compute(
                ctx, self.file, step_oio, timeline, stats, plan=plan)
            results.append(result)
            self.stats.steps += 1
        return results


def sliding_windows(base: Subarray, axis: int, steps: int,
                    stride: int) -> List[Subarray]:
    """Per-step regions for a rigid sweep: ``base`` translated by
    ``stride`` along ``axis`` each step — the canonical iterative
    pattern (a moving time window)."""
    out = []
    for s in range(steps):
        start = list(base.start)
        start[axis] += s * stride
        out.append(Subarray(tuple(start), base.count))
    return out
