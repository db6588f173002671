"""Figure 2 — CPU profiling of two-phase collective I/O.

The paper samples system-wide CPU state (user% / sys% / wait%) while
the Figure-1 collective read runs: I/O wait dominates, with a steady
system-time component from the shuffle's packing/copying and a small
user share.

We reproduce the same trace from the simulator's CPU accounting, binned
over simulated time.  Figure 3 profiles the same request under
independent I/O: both figures run this module's :func:`run_point`,
whose ``mode`` argument is the only difference.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..config import KiB
from ..core import SUM_OP
from ..io import CollectiveHints
from ..workloads.climate import interleaved_workload
from .common import (ExperimentResult, hopper_platform, run_objectio_job,
                     sweep)
from .fig01_io_profile import (AGGREGATORS_PER_NODE, CORES_PER_NODE, NODES,
                               NPROCS, N_OSTS)

#: ``--quick`` configuration (Figures 2 and 3).
QUICK_KWARGS: Dict[str, Any] = dict(iterations=8)

_FN = "repro.experiments.fig02_cpu_collective:run_point"

#: Per I/O mode: figure id, title, strategy and paper expectation.
_FIGURES: Dict[str, Tuple[str, str, str, str]] = {
    "collective": (
        "fig2", "CPU Profiling of Two-Phase Collective I/O",
        "two-phase collective read (blocking baseline)",
        "I/O wait dominates throughout; a persistent sys% component "
        "from shuffle copying; small user%"),
    "independent": (
        "fig3", "CPU Profiling of Independent I/O",
        "independent non-contiguous reads",
        "wait% even higher than under collective I/O; negligible sys% "
        "(no shuffle phase)"),
}


def run_point(iterations: int, bins: int, mode: str) -> Tuple:
    """The single profiled job under I/O ``mode`` (``"collective"`` or
    ``"independent"``); returns ``(rows, overall percentages,
    job_time)``."""
    platform = hopper_platform(NODES, cores_per_node=CORES_PER_NODE,
                               n_osts=N_OSTS)
    hints = CollectiveHints(cb_buffer_size=256 * KiB,
                            aggregators_per_node=AGGREGATORS_PER_NODE)
    n_aggr = NODES * AGGREGATORS_PER_NODE
    total_bytes = iterations * n_aggr * hints.cb_buffer_size
    # Fine-grained non-contiguity: many small runs per rank, the
    # pattern that motivates collective I/O in the first place.
    workload = interleaved_workload(NPROCS,
                                    per_rank_bytes=total_bytes // NPROCS,
                                    dtype=np.float32, time_steps=256, plane=8)
    out = run_objectio_job(platform, workload, SUM_OP.with_cost(0.05),
                           block=True, mode=mode, hints=hints,
                           stripe_size=hints.cb_buffer_size,
                           stripe_count=N_OSTS, record_cpu=True)
    width = out.time / bins
    series = out.profiler.series(width)
    rows = [(round(r["t"], 4), round(r["user"], 2), round(r["sys"], 2),
             round(r["wait"], 2)) for r in series]
    return rows, out.profiler.percentages(), out.time


def points(iterations: int, bins: int, mode: str) -> List[Dict[str, Any]]:
    """One profiled job: a single sweep point."""
    return [dict(iterations=int(iterations), bins=int(bins), mode=mode)]


def profile(mode: str, iterations: int, bins: int, *, jobs: int = 1,
            cache: Any = None, journal: Any = None) -> ExperimentResult:
    """Figure 2 (``mode="collective"``) or Figure 3
    (``mode="independent"``): user/sys/wait percentages over time."""
    fig_id, title, strategy, expectation = _FIGURES[mode]
    [(rows, overall, job_time)] = sweep(_FN, points(iterations, bins, mode),
                                        jobs=jobs, cache=cache, journal=journal)
    return ExperimentResult(
        experiment_id=fig_id,
        title=title,
        headers=["t_s", "user_pct", "sys_pct", "wait_pct"],
        rows=rows,
        plot_spec=("t_s", ("user_pct", "sys_pct", "wait_pct")),
        settings=[
            ("processes", NPROCS),
            ("strategy", strategy),
            ("overall user%", round(overall["user"], 2)),
            ("overall sys%", round(overall["sys"], 2)),
            ("overall wait%", round(overall["wait"], 2)),
            ("job time (s)", round(job_time, 4)),
        ],
        paper_expectation=expectation,
    )


def run(iterations: int = 30, bins: int = 16, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 2 (user/sys/wait percentages over time)."""
    return profile("collective", iterations, bins, jobs=jobs, cache=cache,
                   journal=journal)
