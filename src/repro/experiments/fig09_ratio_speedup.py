"""Figure 9 — speedup with different computation:I/O ratios.

The paper's headline benchmark: 120 processes on 5 nodes (aggregators =
nodes), a synthetic climate variable, the computation simulated at
ratios 10:1 … 1:10 of the I/O time.  Collective computing vs the
traditional MPI path.  Paper numbers: overall average 1.57x, peak 2.44x
at ratio 1:1, and the I/O-heavy side averages higher than the
computation-heavy side (CC favours data-intensive analysis).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from typing import Any, Dict

from ..config import MiB
from ..core import SUM_OP
from ..workloads.climate import interleaved_workload, ratio_ops_per_element
from .common import (ExperimentResult, PAPER_COST, hopper_platform,
                     measure_io_time, run_objectio_job, sweep)

#: The paper's configuration.
NPROCS = 120
NODES = 5
N_OSTS = 40
#: The ratio axis of the figure (computation : I/O).
RATIOS: Tuple[Tuple[int, int], ...] = (
    (10, 1), (5, 1), (2, 1), (1, 1), (1, 2), (1, 5), (1, 10))

#: ``--quick`` configuration: the peak and its shoulders.
QUICK_KWARGS: Dict[str, Any] = dict(per_rank_mib=1.0,
                                    ratios=((2, 1), (1, 1), (1, 2)))

_FN = "repro.experiments.fig09_ratio_speedup:run_point"
_CALIB_FN = "repro.experiments.fig09_ratio_speedup:calibrate_point"


def calibrate_point(per_rank_mib: float) -> float:
    """Calibration sweep point: the baseline I/O time (the ratio
    denominator every swept point is scaled against)."""
    platform = hopper_platform(NODES, n_osts=N_OSTS)
    workload = interleaved_workload(NPROCS,
                                    per_rank_bytes=int(per_rank_mib * MiB))
    return measure_io_time(platform, workload)


def run_point(num: int, den: int, per_rank_mib: float,
              t_io: float) -> Tuple[Tuple, float]:
    """One figure row: both pipelines at one computation:I/O ratio.
    Returns ``(row, unrounded speedup)`` — the settings averages use
    the unrounded value."""
    platform = hopper_platform(NODES, n_osts=N_OSTS)
    workload = interleaved_workload(NPROCS,
                                    per_rank_bytes=int(per_rank_mib * MiB))
    ops = ratio_ops_per_element(num / den, t_io, NPROCS,
                                workload.gsub.n_elements,
                                PAPER_COST.core_element_rate)
    op = SUM_OP.with_cost(ops)
    mpi = run_objectio_job(platform, workload, op, block=True)
    cc = run_objectio_job(platform, workload, op, block=False)
    speedup = mpi.time / cc.time
    row = (f"{num}:{den}", round(mpi.time, 4), round(cc.time, 4),
           round(speedup, 3))
    return row, speedup


def points(per_rank_mib: float, ratios: Sequence[Tuple[int, int]],
           t_io: float) -> List[Dict[str, Any]]:
    """The sweep: one independent point per ratio."""
    return [dict(num=int(num), den=int(den), per_rank_mib=per_rank_mib,
                 t_io=t_io)
            for num, den in ratios]


def run(per_rank_mib: float = 2.0,
        ratios: Sequence[Tuple[int, int]] = RATIOS, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 9 at ``per_rank_mib`` MiB per process (the
    paper reads an 800 GB dataset; speedup ratios are scale-invariant
    under the cost model, see EXPERIMENTS.md)."""
    [t_io] = sweep(_CALIB_FN, [dict(per_rank_mib=per_rank_mib)], cache=cache, journal=journal)
    payloads = sweep(_FN, points(per_rank_mib, ratios, t_io),
                     jobs=jobs, cache=cache, journal=journal)
    rows: List[Tuple] = [row for row, _ in payloads]
    speedups: List[float] = [s for _, s in payloads]
    n = len(speedups)
    comp_heavy = speedups[: n // 2]
    io_heavy = speedups[n // 2 + 1:]
    return ExperimentResult(
        experiment_id="fig9",
        title="Speedup with Different Computation vs I/O Ratio",
        headers=["comp:io", "mpi_s", "cc_s", "speedup"],
        rows=rows,
        plot_spec=("comp:io", ("speedup",)),
        settings=[
            ("processes", NPROCS),
            ("nodes (= aggregators)", NODES),
            ("OSTs", N_OSTS),
            ("per-rank request (MiB)", per_rank_mib),
            ("baseline I/O time (s)", round(t_io, 4)),
            ("average speedup", round(sum(speedups) / n, 3)),
            ("peak speedup", round(max(speedups), 3)),
            ("peak at ratio", rows[speedups.index(max(speedups))][0]),
            ("avg speedup computation>I/O",
             round(sum(comp_heavy) / len(comp_heavy), 3)),
            ("avg speedup I/O>computation",
             round(sum(io_heavy) / len(io_heavy), 3)),
        ],
        paper_expectation=(
            "speedup rises then falls with the peak at ratio 1:1 "
            "(paper: 2.44x); overall average 1.57x; the I/O-heavy side "
            "averages above the computation-heavy side"
        ),
    )
