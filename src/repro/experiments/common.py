"""Shared machinery for the paper-reproduction experiments.

Each ``figNN_*.py`` module builds scenarios from these helpers and
returns an :class:`ExperimentResult` whose rows mirror the series the
paper plots.  ``PAPER_COST`` is the cost model calibrated so the
baseline two-phase read shows the paper's headline balance (per-
iteration shuffle comparable to read; ~15-20% total shuffle overhead on
the Figure-1 workload) — see EXPERIMENTS.md for the calibration notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..cluster import Machine
from ..config import CostModel, MiB, PlatformSpec
from ..core import SUM_OP, CCStats, MapReduceOp, ObjectIO, object_get
from ..faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                      resilient_object_get)
from ..integrity import IntegrityManager
from ..io import CollectiveHints
from ..mpi import mpi_run
from ..profiling import CpuProfiler, PhaseTimeline, format_kv, format_table
from ..sim import Kernel
from ..workloads.climate import Workload, climate_field

#: Cost model calibrated against the paper's testbed balance.
PAPER_COST = CostModel(
    link_bandwidth=1.35e9,
    net_latency=2.2e-5,
    memcpy_bandwidth=4.0e9,
    ost_seek=5.0e-4,
)

#: Collective-buffer hints used unless an experiment overrides them
#: (4 MiB is the MPICH default the paper quotes).
DEFAULT_HINTS = CollectiveHints(cb_buffer_size=4 * MiB,
                                aggregators_per_node=1)


def sweep(fn_path: str, point_kwargs: Sequence[Dict[str, Any]], *,
          jobs: int = 1, cache: Optional[Any] = None,
          journal: Optional[Any] = None) -> List[Any]:
    """Run an experiment's sweep points through the parallel engine.

    Every ``figNN_*.run`` entry point goes through here: it builds its
    point list with the module's ``points()``, fans them out with
    ``jobs`` workers (``jobs=1`` is the exact in-process serial path —
    no pool, no pickling), and merges the returned payloads **in point
    order**, which is what keeps ``--jobs N`` output bit-identical to
    serial output.  ``cache`` is an optional
    :class:`~repro.parallel.PointCache`; ``journal`` an optional
    unbounded one at :func:`~repro.parallel.journal_root` storing every
    completed point durably (the ``--resume`` path of the experiments
    CLI — entries are content-keyed, so one journal safely covers every
    sweep of a run).
    """
    from ..parallel import SweepPoint, run_sweep
    points = [SweepPoint.make(fn_path, label=f"{fn_path.rsplit(':')[-1]}#{i}",
                              **kw)
              for i, kw in enumerate(point_kwargs)]
    return run_sweep(points, jobs=jobs, cache=cache, journal=journal)


def hopper_platform(nodes: int, *, cores_per_node: int = 24,
                    n_osts: int = 40, cost: Optional[CostModel] = None
                    ) -> PlatformSpec:
    """The evaluation platform: Hopper-like nodes over ``n_osts`` OSTs
    (the paper's climate file is striped over 40 OSTs)."""
    return PlatformSpec(
        nodes=nodes, cores_per_node=cores_per_node, torus=True,
        n_osts=n_osts, default_stripe_size=4 * MiB,
        cost=cost or PAPER_COST,
    )


@dataclass
class RunOutcome:
    """Everything measured from one simulated job.

    It keeps numbers, the per-rank results and the recorders, never the
    machine: a sweep point may hold several outcomes at once.
    """

    #: Simulated time when the job's event queue drained (seconds).
    time: float
    #: Per-rank return values.
    results: List[Any]
    #: The CC statistics accumulator (shared across ranks).
    stats: CCStats
    #: The phase timeline, if recording was requested.
    timeline: Optional[PhaseTimeline]
    #: CPU profiler, if requested.
    profiler: Optional[CpuProfiler]
    #: Bytes moved across node boundaries (messages and file traffic).
    inter_node_bytes: int
    #: Bytes moved within nodes (shared-memory messages).
    intra_node_bytes: int
    #: Injected faults, integrity detections and recovery records
    #: (0 without a fault plan or integrity checking).
    injected: int
    detected: int
    recovered: int

    @property
    def mpi_bytes(self) -> int:
        """Every byte the interconnect carried (inter- plus intra-node)."""
        return self.inter_node_bytes + self.intra_node_bytes

    @property
    def global_result(self) -> Any:
        """The root rank's global result (CCResult runs)."""
        r0 = self.results[0]
        return getattr(r0, "global_result", r0)


def run_objectio_job(platform: PlatformSpec, workload: Workload,
                     op: MapReduceOp, *, block: bool,
                     reduce_mode: str = "all_to_all",
                     hints: CollectiveHints = DEFAULT_HINTS,
                     stripe_size: int = 1 * MiB,
                     stripe_count: Optional[int] = None,
                     field_func: Callable = climate_field,
                     record_timeline: bool = False,
                     record_cpu: bool = False,
                     mode: str = "collective",
                     policy: Optional[RecoveryPolicy] = None,
                     faults: Optional[FaultPlan] = None,
                     integrity: bool = False) -> RunOutcome:
    """Build a fresh machine + file and run one analysis job on it.

    ``block=True`` gives the traditional-MPI baseline; ``block=False``
    the collective-computing pipeline.  A ``policy`` runs the resilient
    twin of either (:func:`~repro.faults.resilient_object_get`);
    ``faults`` attaches a :class:`~repro.faults.FaultInjector` with
    that plan and ``integrity`` an
    :class:`~repro.integrity.IntegrityManager`.  Every run uses its
    own kernel, so outcomes are independent and deterministic.
    """
    kernel = Kernel()
    machine = Machine(kernel, platform)
    nprocs = workload.nprocs
    machine.validate_job(nprocs)
    file = machine.fs.create_procedural_file(
        "dataset.nc", workload.dspec.n_elements, dtype=workload.dspec.dtype,
        func=field_func, stripe_size=stripe_size,
        stripe_count=stripe_count if stripe_count is not None else -1,
    )
    integ = IntegrityManager.attach(machine) if integrity else None
    injector = (FaultInjector.attach(machine, faults)
                if faults is not None else None)
    timeline = PhaseTimeline() if record_timeline else None
    profiler = CpuProfiler(nprocs) if record_cpu else None
    stats = CCStats()

    def main(ctx) -> Generator:
        oio = ObjectIO(workload.dspec, workload.parts[ctx.rank], op,
                       mode=mode, block=block, reduce_mode=reduce_mode,
                       hints=hints)
        if policy is None:
            result = yield from object_get(ctx, file, oio, timeline, stats)
        else:
            result = yield from resilient_object_get(ctx, file, oio, policy,
                                                     timeline, stats)
        return result

    results = mpi_run(machine, nprocs, main, profiler=profiler)
    return RunOutcome(
        time=kernel.now, results=results, stats=stats,
        timeline=timeline, profiler=profiler,
        inter_node_bytes=machine.network.inter_node_bytes,
        intra_node_bytes=machine.network.intra_node_bytes,
        injected=len(injector.injected()) if injector is not None else 0,
        detected=integ.detected() if integ is not None else 0,
        recovered=len(injector.recovered()) if injector is not None else 0,
    )


def measure_io_time(platform: PlatformSpec, workload: Workload) -> float:
    """The ``I/O`` denominator of the paper's ratios: the
    *data-ingestion* time, i.e. a collective-computing run with
    negligible compute (the read pipeline without the raw shuffle)."""
    return run_objectio_job(platform, workload, SUM_OP.with_cost(1e-9),
                            block=False).time


@dataclass
class ExperimentResult:
    """A rendered experiment: id, settings, table rows, notes.

    ``plot_spec`` optionally names the x column and y columns the
    figure plots; :meth:`plot` then renders the ASCII approximation.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Sequence[Any]]
    settings: List[Tuple[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_expectation: str = ""
    plot_spec: Optional[Tuple[str, Tuple[str, ...]]] = None

    def render(self, plot: bool = False) -> str:
        """Full text report for this experiment."""
        parts = [format_table(self.headers, self.rows,
                              title=f"{self.experiment_id}: {self.title}")]
        if plot:
            chart = self.plot()
            if chart:
                parts.append(chart)
        if self.settings:
            parts.append(format_kv(self.settings, title="Settings"))
        if self.paper_expectation:
            parts.append(f"Paper expectation: {self.paper_expectation}")
        for n in self.notes:
            parts.append(f"Note: {n}")
        return "\n\n".join(parts)

    def column(self, name: str) -> List[Any]:
        """Values of the column called ``name``."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def plot(self) -> Optional[str]:
        """ASCII line plot of the figure's series (None for tables)."""
        if self.plot_spec is None:
            return None
        from ..profiling import plot_columns
        x, ys = self.plot_spec
        return plot_columns(self.headers, self.rows, x, list(ys),
                            title=f"{self.experiment_id} (ASCII approximation)")

    def to_csv(self) -> str:
        """The result rows as CSV (header line + one line per row)."""
        def cell(v: Any) -> str:
            s = str(v)
            if any(ch in s for ch in ",\"\n"):
                s = '"' + s.replace('"', '""') + '"'
            return s
        lines = [",".join(cell(h) for h in self.headers)]
        lines.extend(",".join(cell(v) for v in row) for row in self.rows)
        return "\n".join(lines)
