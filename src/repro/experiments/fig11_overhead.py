"""Figure 11 — overhead analysis (the framework's "local reduction").

Collective computing introduces extra work beyond the raw map: logical
construction and intermediate-result reduction (paper §III-B/C).  The
paper sums these as *local reduction* and compares against traditional
MPI's reduction stage — the per-rank analysis loop plus the final
``MPI_Reduce`` — at 128/256/512 processes over a fixed 40 GB or 80 GB
total I/O.  Observations: the overhead *decreases* with the process
count (fixed total work spread wider), CC-80G sits above CC-40G (more
workload, more partials), and nothing approaches the ~76 s I/O cost —
local reduction is not a bottleneck.

We measure the same quantities: the baseline's per-rank analysis time
(``stats.map_time / P``) and CC's per-rank partial-combination time
(``stats.local_reduction_time / P``), at two scaled total sizes with a
2:1 ratio standing in for 40 GB : 80 GB.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import math

from typing import Any, Dict

from ..config import MiB
from ..core import SUM_OP
from ..workloads.climate import Workload
from ..dataspace import DatasetSpec, block_partition, full_selection
from .common import (ExperimentResult, hopper_platform, run_objectio_job,
                     sweep)

#: Process counts of the figure.
PROCESS_COUNTS: Tuple[int, ...] = (128, 256, 512)
#: CPU weight of the analysis operator (visible but not dominant).
OP_COST = 4.0
N_OSTS = 40

#: ``--quick`` configuration.
QUICK_KWARGS: Dict[str, Any] = dict(total_mib_small=24.0,
                                    process_counts=(128, 256))

_FN = "repro.experiments.fig11_overhead:run_point"

import numpy as np

from ..config import KiB
from ..io import CollectiveHints

#: Collective buffer for this figure: small enough that each rank's
#: region spans several windows even at the scaled-down total size, so
#: partial counts vary with P as they do at the paper's 40/80 GB scale.
HINTS_FIG11 = CollectiveHints(cb_buffer_size=64 * KiB,
                              aggregators_per_node=1)


def _contiguous_workload(nprocs: int, total_bytes: int) -> Workload:
    """A block (axis-0) decomposition: each rank's region is clustered
    in the file, so the partials a rank receives shrink as P grows —
    the regime the paper's figure explores."""
    plane = 64 * 64 * 8  # bytes per (y, x) plane of float64
    slabs = max(nprocs, int(round(total_bytes / plane)))
    slabs -= slabs % nprocs
    if slabs == 0:
        slabs = nprocs
    dspec = DatasetSpec((slabs, 64, 64), np.float64, name="temperature")
    gsub = full_selection(dspec)
    parts = block_partition(gsub, nprocs, axis=0)
    return Workload(dspec, gsub, tuple(parts))


def run_point(nprocs: int, total_mib_small: float) -> Tuple[Tuple, float]:
    """One figure row: the three jobs at one process count.  Returns
    ``(row, cc40 job time)`` — the latter feeds the settings average."""
    op = SUM_OP.with_cost(OP_COST)
    nodes = max(1, math.ceil(nprocs / 24))
    platform = hopper_platform(nodes, n_osts=N_OSTS)
    w40 = _contiguous_workload(nprocs, int(total_mib_small * MiB))
    w80 = _contiguous_workload(nprocs, int(2 * total_mib_small * MiB))
    mpi40 = run_objectio_job(platform, w40, op, block=True,
                             hints=HINTS_FIG11)
    cc40 = run_objectio_job(platform, w40, op, block=False,
                            hints=HINTS_FIG11)
    cc80 = run_objectio_job(platform, w80, op, block=False,
                            hints=HINTS_FIG11)
    row = (
        nprocs,
        round(mpi40.stats.map_time / nprocs * 1e6, 3),
        round(cc40.stats.local_reduction_time / nprocs * 1e6, 3),
        round(cc80.stats.local_reduction_time / nprocs * 1e6, 3),
    )
    return row, cc40.time


def points(total_mib_small: float,
           process_counts: Sequence[int]) -> List[Dict[str, Any]]:
    """The sweep: one independent point per process count."""
    return [dict(nprocs=int(nprocs), total_mib_small=float(total_mib_small))
            for nprocs in process_counts]


def run(total_mib_small: float = 48.0,
        process_counts: Sequence[int] = PROCESS_COUNTS, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 11; ``total_mib_small`` stands in for the
    paper's 40 GB (the 80 GB series uses twice that)."""
    payloads = sweep(_FN, points(total_mib_small, process_counts),
                     jobs=jobs, cache=cache, journal=journal)
    rows: List[Tuple] = [row for row, _ in payloads]
    io_costs: List[float] = [t for _, t in payloads]
    return ExperimentResult(
        experiment_id="fig11",
        title="Overhead Analysis: local reduction vs MPI reduction "
              "(per-rank, microseconds)",
        headers=["processes", "MPI-40G_us", "CC-40G_us", "CC-80G_us"],
        rows=rows,
        plot_spec=("processes", ("MPI-40G_us", "CC-40G_us", "CC-80G_us")),
        settings=[
            ("total I/O (small series, MiB)", total_mib_small),
            ("total I/O (large series, MiB)", 2 * total_mib_small),
            ("operator CPU weight", OP_COST),
            ("typical CC job time (s)", round(sum(io_costs) / len(io_costs), 4)),
        ],
        paper_expectation=(
            "overhead decreases as processes increase; CC-80G above "
            "CC-40G (workload determines overhead); CC below MPI; all "
            "values far below the total I/O cost (paper: ~76 s I/O)"
        ),
    )
