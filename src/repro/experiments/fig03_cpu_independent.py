"""Figure 3 — CPU profiling of independent I/O.

The counterpart of Figure 2 with every process issuing its own
non-contiguous requests: virtually no system time (no shuffle) and an
even larger I/O-wait share, since the OSTs drown in small reads.
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

#: ``--quick`` configuration.
QUICK_KWARGS: Dict[str, Any] = dict(iterations=8)

_FN = "repro.experiments.fig03_cpu_independent:run_point"


def run_point(iterations: int, bins: int) -> Tuple:
    """The single profiled job (independent I/O); returns ``(rows,
    overall percentages, job_time)``."""
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
                           block=True, mode="independent", hints=hints,
                           stripe_size=hints.cb_buffer_size,
                           stripe_count=N_OSTS, record_cpu=True)
    width = out.time / bins
    series = out.profiler.series(width)
    rows = [(round(r["t"], 4), round(r["user"], 2), round(r["sys"], 2),
             round(r["wait"], 2)) for r in series]
    return rows, out.profiler.percentages(), out.time


def points(iterations: int, bins: int) -> List[Dict[str, Any]]:
    """One profiled job: a single sweep point."""
    return [dict(iterations=int(iterations), bins=int(bins))]


def run(iterations: int = 30, bins: int = 16, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 3 (user/sys/wait under independent I/O).

    ``iterations`` is interpreted as the same data-volume knob as
    Figure 2's, so the two figures profile the same request at the same
    scale — only the I/O strategy differs.
    """
    [(rows, overall, job_time)] = sweep(_FN, points(iterations, bins),
                                        jobs=jobs, cache=cache, journal=journal)
    return ExperimentResult(
        experiment_id="fig3",
        title="CPU Profiling of Independent I/O",
        headers=["t_s", "user_pct", "sys_pct", "wait_pct"],
        rows=rows,
        plot_spec=("t_s", ("user_pct", "sys_pct", "wait_pct")),
        settings=[
            ("processes", NPROCS),
            ("strategy", "independent non-contiguous reads"),
            ("overall user%", round(overall["user"], 2)),
            ("overall sys%", round(overall["sys"], 2)),
            ("overall wait%", round(overall["wait"], 2)),
            ("job time (s)", round(job_time, 4)),
        ],
        paper_expectation=(
            "wait% even higher than under collective I/O; negligible sys% "
            "(no shuffle phase)"
        ),
    )
