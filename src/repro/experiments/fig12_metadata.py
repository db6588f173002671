"""Figure 12 — metadata (storage) overhead vs collective buffer size.

Every intermediate result carries metadata: process information plus
the logical coordinates the logical map reconstructed (§III-B).  The
paper's mechanism (its file-system "block size" analogy): when a
logical subset is on average *larger* than the MPI collective buffer,
it is broken across iterations and each fragment gets its own metadata
record — so small buffers multiply the metadata.  Once the buffer
exceeds the typical subset size (the paper finds 8-12 MB optimal for
its workload) further growth stops helping.

We build a workload whose per-rank logical subsets are contiguous runs
of 1-10 MiB (deterministically varied), sweep the paper's buffer sizes
1 → 24 MB, and report the measured ``CCStats.metadata_bytes``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from typing import Any, Dict

from ..config import KiB, MiB
from ..core import SUM_OP
from ..dataspace import DatasetSpec, Subarray
from ..io import CollectiveHints
from ..workloads.climate import Workload
from .common import (ExperimentResult, hopper_platform, run_objectio_job,
                     sweep)

#: Buffer sizes of the paper's sweep (MB).
BUFFER_SIZES_MB: Tuple[int, ...] = (1, 4, 8, 12, 24)
NPROCS = 72
NODES = 6
N_OSTS = 40

#: ``--quick`` configuration.
QUICK_KWARGS: Dict[str, Any] = dict(scale=0.5, buffer_sizes_mb=(1, 8, 24))

_FN = "repro.experiments.fig12_metadata:run_point"


def _varied_subset_workload(nprocs: int, scale: float) -> Workload:
    """Per-rank contiguous row-bands whose sizes cycle through
    1..10 (scaled) MiB, so buffer sizes inside that range split some
    subsets and not others — reproducing the paper's distribution of
    "intermediate logical subsets" around the buffer sizes swept."""
    width = 512  # 4 KiB rows of float64
    row_bytes = width * 8
    sizes_mib = [1 + (3 * r) % 10 for r in range(nprocs)]
    rows_per_rank = [max(1, int(s * scale * MiB / row_bytes))
                     for s in sizes_mib]
    total_rows = sum(rows_per_rank)
    dspec = DatasetSpec((total_rows, width), np.float64, name="temperature")
    parts: List[Subarray] = []
    pos = 0
    for rows in rows_per_rank:
        parts.append(Subarray((pos, 0), (rows, width)))
        pos += rows
    gsub = Subarray((0, 0), (total_rows, width))
    return Workload(dspec, gsub, tuple(parts))


def run_point(mb: int, scale: float) -> Tuple:
    """One figure row: the CC job at one collective-buffer size."""
    platform = hopper_platform(NODES, cores_per_node=12, n_osts=N_OSTS)
    workload = _varied_subset_workload(NPROCS, scale)
    cb = max(int(mb * scale * MiB), 64 * KiB)
    hints = CollectiveHints(cb_buffer_size=cb, aggregators_per_node=1)
    out = run_objectio_job(platform, workload, SUM_OP, block=False,
                           hints=hints, stripe_size=1 * MiB,
                           stripe_count=N_OSTS)
    return (
        mb,
        round(out.stats.metadata_bytes / KiB, 3),
        out.stats.partial_count,
        out.stats.block_count,
        round(out.time, 4),
    )


def points(scale: float,
           buffer_sizes_mb: Sequence[int]) -> List[Dict[str, Any]]:
    """The sweep: one independent point per buffer size."""
    return [dict(mb=int(mb), scale=float(scale)) for mb in buffer_sizes_mb]


def run(scale: float = 1.0,
        buffer_sizes_mb: Sequence[int] = BUFFER_SIZES_MB, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 12.

    ``scale`` shrinks the subset sizes *and* the swept buffer sizes
    together, preserving the subset-size : buffer-size ratios the
    figure is about (scale 1.0 uses the paper's actual 1-24 MB range).
    """
    workload = _varied_subset_workload(NPROCS, scale)
    rows: List[Tuple] = sweep(_FN, points(scale, buffer_sizes_mb),
                              jobs=jobs, cache=cache, journal=journal)
    meta = [r[1] for r in rows]
    return ExperimentResult(
        experiment_id="fig12",
        title="Metadata Overhead vs MPI Collective Buffer Size",
        headers=["cb_size_MB", "metadata_KiB", "partial_records",
                 "logical_blocks", "job_s"],
        rows=rows,
        plot_spec=("cb_size_MB", ("metadata_KiB",)),
        settings=[
            ("processes", NPROCS),
            ("workload", "contiguous per-rank subsets of 1-10 MiB "
                         f"(scale={scale})"),
            ("requested data (MiB)",
             round(workload.total_bytes / MiB, 2)),
            ("metadata at 1 MB / at 24 MB",
             f"{meta[0]} / {meta[-1]} KiB"),
            ("reduction factor", round(meta[0] / meta[-1], 2)),
        ],
        paper_expectation=(
            "metadata shrinks steeply as the buffer grows, reaching an "
            "optimum around 8-12 MB, with little further gain beyond"
        ),
    )
