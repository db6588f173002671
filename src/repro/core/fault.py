"""Fault tolerance for collective computing (the paper's future work).

The paper's conclusion names "investigat[ing] the fault tolerance of
the collective computing" as future work.  The framework's structure
makes a MapReduce-style answer natural: the map is **deterministic and
side-effect free** (reading immutable file bytes and emitting partial
results), so any aggregator's work can be re-executed by a survivor —
no raw-data state needs recovering.

This module implements fail-stop aggregator recovery in the style of an
ULFM shrink-and-redistribute:

* :func:`degrade_plan` — given the set of failed aggregator ranks,
  reassigns their file-domain windows round-robin over the surviving
  aggregators.  Every rank derives the identical degraded schedule from
  the identical plan + failure set, so receivers expect partials from
  the right survivors without extra coordination.
* :func:`cc_read_compute_ft` — runs a collective-computing job under a
  failure set.  Failed ranks are assumed fail-stop *before* the job
  (the spare/shrink model): they contribute no aggregation work, but —
  so the job's answer stays the answer to the same question — their
  analysis regions are still produced, by the survivors' maps, and
  delivered to the configured root.

The ablation test suite injects failures and checks bit-identical
results at degraded speed.
"""

from __future__ import annotations

from typing import AbstractSet, Generator, List, Optional, Tuple

from ..errors import CollectiveComputingError
from ..io import AccessRequest
from ..io.twophase import TwoPhasePlan, make_plan
from ..mpi import RankContext
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .metadata import CCStats
from .object_io import ObjectIO
from .runtime import cc_read_compute


def degrade_plan(plan: TwoPhasePlan,
                 failed: AbstractSet[int]) -> TwoPhasePlan:
    """Reassign every failed aggregator's windows to the survivors.

    Windows are dealt round-robin over the surviving aggregators in
    rank order, preserving each window's byte range (the data to serve
    does not change — only who serves it).  Raises if *every*
    aggregator failed.
    """
    if not failed:
        return plan
    survivors: List[int] = [a for a in plan.aggregators if a not in failed]
    if not survivors:
        raise CollectiveComputingError(
            "all aggregators failed; no survivor can serve the job"
        )
    surv_windows = {
        a: list(plan.windows[i])
        for i, a in enumerate(plan.aggregators) if a not in failed
    }
    orphaned: List[Tuple[int, int]] = []
    for i, a in enumerate(plan.aggregators):
        if a in failed:
            orphaned.extend(plan.windows[i])
    for k, window in enumerate(sorted(orphaned)):
        surv_windows[survivors[k % len(survivors)]].append(window)
    # Windows must stay sorted per aggregator for deterministic tags.
    return TwoPhasePlan(
        all_runs=list(plan.all_runs),
        aggregators=survivors,
        domains=[plan.domains[plan.aggregators.index(a)] for a in survivors],
        windows=[sorted(surv_windows[a]) for a in survivors],
    )


def cc_read_compute_ft(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                       failed_aggregators: AbstractSet[int] = frozenset(),
                       timeline: Optional[PhaseTimeline] = None,
                       stats: Optional[CCStats] = None) -> Generator:
    """Collective-computing read+compute surviving aggregator failures.

    All ranks must pass the same ``failed_aggregators`` set (in a real
    deployment this is the post-failure agreement ULFM's shrink
    provides).  Ranks in the set neither aggregate nor map; their
    regions' partials are produced by survivors and the global result
    is identical to the failure-free run.
    """
    if oio.block:
        raise CollectiveComputingError("fault-tolerant path is CC-only")
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    grid = (oio.spec.file_offset, oio.spec.itemsize)
    plan = yield from make_plan(ctx, request.runs, file, oio.hints, grid)
    plan = degrade_plan(plan, failed_aggregators)
    result = yield from cc_read_compute(ctx, file, oio, timeline, stats,
                                        plan=plan)
    return result
