"""Figure 10 — scalability of collective computing.

Weak scaling at a fixed computation:I/O ratio of 1:5 (the paper's sixth
bar of Figure 9): the per-process request size stays constant while the
process count grows 24 → 1024 (nodes grow proportionally, and with one
aggregator per node so does the aggregator count).  Paper observations:
execution time grows with the workload, CC stays ahead of traditional
MPI, and the speedup *increases* with scale — 1.42x at 120 processes to
1.7x at 1024 — because the shuffle cost grows with aggregator count.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from typing import Any, Dict
from ..config import MiB
from ..core import SUM_OP
from ..workloads.climate import interleaved_workload, ratio_ops_per_element
from .common import (ExperimentResult, PAPER_COST, hopper_platform,
                     measure_io_time, run_objectio_job, sweep)

#: The paper's process counts.
PROCESS_COUNTS: Tuple[int, ...] = (24, 48, 120, 240, 480, 1024)
#: Fixed computation : I/O ratio (the paper uses 1:5).
RATIO = 1 / 5
N_OSTS = 156  # the full Hopper Lustre — aggregator count grows to 43

#: ``--quick`` configuration (matches the benchmark gate's).
QUICK_KWARGS: Dict[str, Any] = dict(per_rank_mib=1.0,
                                    process_counts=(24, 48, 120))

_FN = "repro.experiments.fig10_scalability:run_point"
_CALIB_FN = "repro.experiments.fig10_scalability:calibrate_point"


def _nodes_for(nprocs: int) -> int:
    return max(1, math.ceil(nprocs / 24))


def calibrate_point(per_rank_mib: float, p0: int) -> float:
    """Calibration sweep point: the per-element operator weight fixing
    the 1:5 computation:I/O ratio on the smallest configuration."""
    per_rank_bytes = int(per_rank_mib * MiB)
    w0 = interleaved_workload(p0, per_rank_bytes=per_rank_bytes)
    t_io0 = measure_io_time(hopper_platform(_nodes_for(p0), n_osts=N_OSTS), w0)
    return ratio_ops_per_element(RATIO, t_io0, p0, w0.gsub.n_elements,
                                 PAPER_COST.core_element_rate)


def run_point(nprocs: int, per_rank_mib: float, ops: float) -> Tuple:
    """One figure row: both pipelines at one process count."""
    per_rank_bytes = int(per_rank_mib * MiB)
    op = SUM_OP.with_cost(ops)
    platform = hopper_platform(_nodes_for(nprocs), n_osts=N_OSTS)
    workload = interleaved_workload(nprocs, per_rank_bytes=per_rank_bytes)
    mpi = run_objectio_job(platform, workload, op, block=True)
    cc = run_objectio_job(platform, workload, op, block=False)
    return (nprocs, round(mpi.time, 4), round(cc.time, 4),
            round(mpi.time / cc.time, 3),
            round(mpi.time - cc.time, 4))


def points(per_rank_mib: float, process_counts: Sequence[int],
           ops: float) -> List[Dict[str, Any]]:
    """The sweep: one independent point per process count."""
    return [dict(nprocs=int(nprocs), per_rank_mib=per_rank_mib, ops=ops)
            for nprocs in process_counts]


def run(per_rank_mib: float = 1.0,
        process_counts: Sequence[int] = PROCESS_COUNTS, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 10 (scaled per-rank request size)."""
    # Calibrate the operator once, on the smallest configuration, and
    # keep it fixed — the analysis per element does not change with P.
    p0 = process_counts[0]
    [ops] = sweep(_CALIB_FN, [dict(per_rank_mib=per_rank_mib, p0=int(p0))],
                  cache=cache, journal=journal)
    rows: List[Tuple] = sweep(_FN, points(per_rank_mib, process_counts, ops),
                              jobs=jobs, cache=cache, journal=journal)
    speedups = [r[3] for r in rows]
    return ExperimentResult(
        experiment_id="fig10",
        title="Scalability of Collective Computing (weak scaling, ratio 1:5)",
        headers=["processes", "mpi_s", "cc_s", "speedup", "time_saved_s"],
        rows=rows,
        plot_spec=("processes", ("mpi_s", "cc_s")),
        settings=[
            ("per-rank request (MiB)", per_rank_mib),
            ("computation:I/O ratio", "1:5"),
            ("aggregators", "one per node (nodes = ceil(P/24))"),
            ("OSTs", N_OSTS),
            ("speedup at smallest P", speedups[0]),
            ("speedup at largest P", speedups[-1]),
        ],
        paper_expectation=(
            "execution time grows with the (weak-scaled) workload; CC "
            "speedup increases with process count (paper: 1.42x at 120 "
            "to 1.7x at 1024), and the absolute time saved grows"
        ),
    )
