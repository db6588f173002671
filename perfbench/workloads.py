"""The benchmark's four workloads, built from a seed.

A workload is a list of *points*; a point is a tuple of simulated jobs
run one after another in one process, mirroring how the figure sweeps
group their jobs (a Figure-10 point runs both pipelines at one process
count, so the second pipeline reuses the first one's generated blocks).
A serial pass calls :func:`run_point` for every point in order; a pool
pass sends the very same points through ``repro.parallel.run_sweep``.

The job list comes from each figure's own ``points()``.  Jobs whose
figure ``run_point`` returns the answer and the wire bytes (Figures 14,
15 and 16) call it as they are (:class:`FigureJob`).  Figures 10 and 11
return only rounded times, so their jobs call ``run_objectio_job``
with the figure's platform, workload and hints (:class:`ObjectIOJob`).

The seed selects the data, not the amount of work: an
:class:`ObjectIOJob` or :class:`RoundTripJob` reads the figure's
synthetic field shifted by a seed-chosen index offset
(:class:`SeededField`), so its answer changes with the seed while its
simulated time, wire bytes and host cost do not.  A :class:`FigureJob`
runs the figure's own data and fault plan for every seed: a different
fault schedule changes the recovery work by up to 3x (measured on
Figure 15).  Seed 0 is the figures' own data throughout.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cluster import Machine
from repro.config import KiB, MiB, PlatformSpec
from repro.core import MAXLOC_OP, SUM_OP, MapReduceOp
from repro.experiments import fig10_scalability as fig10
from repro.experiments import fig11_overhead as fig11
from repro.experiments import fig14_faults as fig14
from repro.experiments import fig15_integrity as fig15
from repro.experiments import fig16_intranode as fig16
from repro.experiments.common import (DEFAULT_HINTS, hopper_platform,
                                      run_objectio_job)
from repro.io import (AccessRequest, CollectiveHints, collective_read,
                      collective_write)
from repro.mpi import mpi_run
from repro.pfs import ArraySource, datasource
from repro.profiling import PhaseTimeline
from repro.sim import Kernel
from repro.workloads.climate import (Workload, climate_field,
                                     interleaved_workload)

NAMES = ("weak-scaling", "ingest", "many-ranks", "integrity")

#: Elements between two seeds' regions of the synthetic field: larger
#: than any dataset here, so no two seeds analyse overlapping data.
SEED_STRIDE = 1 << 30
#: Largest accepted seed (keeps every shifted index inside int64).
MAX_SEED = (1 << 31) - 1

#: Phases a :class:`~repro.profiling.PhaseTimeline` records that the
#: traced run reports.
PHASES = ("read", "shuffle", "write")

#: Ingest's collective buffer iterations: 6 x 36 aggregators x 256 KiB
#: = 54 MiB of float32 per pipeline ...
INGEST_ITERATIONS = 6
#: ... through a block cache of this many bytes, so the cache evicts:
#: the 54 blocks are generated about 65 times by two-phase and 39 more
#: by CC.  Shrinking the cache rather than growing the file past the
#: default 256 MiB keeps a pass to a few seconds, so a run times several.
INGEST_CACHE_BYTES = 48 * MiB


@dataclass(frozen=True)
class SeededField:
    """``func(idx + offset)``: a figure's field, moved to the seed's region."""

    func: Callable[[np.ndarray], np.ndarray]
    offset: int

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        return self.func(idx + self.offset)

    def __repr__(self) -> str:
        return (f"SeededField({self.func.__module__}.{self.func.__qualname__}"
                f", offset={self.offset})")


def field_values(func: Callable, n: int, dtype, chunk: int = 1 << 20
                 ) -> np.ndarray:
    """Elements ``0..n-1`` of ``func`` cast to ``dtype``, generated in
    chunks so the int64 index array never exceeds ``chunk`` elements."""
    out = np.empty(n, dtype=dtype)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = func(np.arange(lo, hi, dtype=np.int64))
    return out


class Outcome(NamedTuple):
    """What one job returns.  ``row`` must repeat exactly across passes,
    pool and serial execution, and traced and untraced runs; ``phases``,
    ``partials`` and ``map_s`` feed the traced run's per-layer view."""

    row: Tuple[str, float, int, Any]  # (label, simulated s, wire bytes, answer)
    phases: Dict[str, float]
    partials: int
    map_s: float


class Failure(NamedTuple):
    """A job that raised; ``error`` is the formatted traceback."""

    label: str
    error: str


def _phase_totals(timeline: Optional[PhaseTimeline]) -> Dict[str, float]:
    if timeline is None:
        return {}
    return {p: timeline.critical_total(p) for p in PHASES}


@dataclass(frozen=True)
class ObjectIOJob:
    """One analysis job through ``run_objectio_job``."""

    label: str
    platform: PlatformSpec
    workload: Workload
    op: MapReduceOp
    block: bool
    field: SeededField
    hints: CollectiveHints = DEFAULT_HINTS
    stripe_size: int = 1 * MiB
    stripe_count: Optional[int] = None

    def run(self, timeline: bool) -> Outcome:
        out = run_objectio_job(
            self.platform, self.workload, self.op, block=self.block,
            hints=self.hints, stripe_size=self.stripe_size,
            stripe_count=self.stripe_count, field_func=self.field,
            record_timeline=timeline)
        return Outcome((self.label, out.time, out.mpi_bytes,
                        out.global_result),
                       _phase_totals(out.timeline), out.stats.partial_count,
                       out.stats.map_time)


@dataclass(frozen=True)
class FigureJob:
    """One point of a figure sweep, run by the figure's own ``run_point``.

    ``run_point(**kwargs)`` returns a tuple with the completion time
    first, the root's answer last, and the wire bytes split over the
    positions ``wire_at``.  ``workload``, ``op`` and ``field`` describe
    what the figure reads, for the reference answer.
    """

    label: str
    fn: Callable[..., Tuple]
    kwargs: Tuple[Tuple[str, Any], ...]
    wire_at: Tuple[int, ...]
    workload: Workload
    op: MapReduceOp
    field: Callable = datasource.default_field

    @property
    def block(self) -> bool:
        return dict(self.kwargs)["block"]

    def run(self, timeline: bool) -> Outcome:
        out = self.fn(**dict(self.kwargs))
        return Outcome((self.label, out[0], sum(out[i] for i in self.wire_at),
                        out[-1]), {}, 0, 0.0)


@dataclass(frozen=True)
class RoundTripJob:
    """A two-phase ``collective_write`` of the seed's field into an empty
    in-memory file, then a ``collective_read`` of it back.  The answer is
    the SHA-256 of the written file and of the read-back buffers."""

    label: str
    platform: PlatformSpec
    workload: Workload
    field: SeededField
    hints: CollectiveHints
    stripe_size: int
    stripe_count: int

    def run(self, timeline: bool) -> Outcome:
        kernel = Kernel()
        machine = Machine(kernel, self.platform)
        w = self.workload
        machine.validate_job(w.nprocs)
        src = ArraySource(np.zeros(w.dspec.n_elements, dtype=w.dspec.dtype))
        file = machine.fs.create_file("roundtrip.nc", src,
                                      stripe_size=self.stripe_size,
                                      stripe_count=self.stripe_count)
        data = field_values(self.field, w.dspec.n_elements,
                            w.dspec.dtype).reshape(w.dspec.shape)
        tl = PhaseTimeline() if timeline else None

        def main(ctx):
            sub = w.parts[ctx.rank]
            req = AccessRequest.from_subarray(w.dspec, sub)
            yield from collective_write(ctx, file, req, data[slices(sub)],
                                        self.hints, timeline=tl)
            buf = yield from collective_read(ctx, file, req, self.hints,
                                             timeline=tl)
            return buf.tobytes()

        results = mpi_run(machine, w.nprocs, main)
        wire = machine.network.inter_node_bytes + machine.network.intra_node_bytes
        answer = (hashlib.sha256(src.as_array().tobytes()).hexdigest(),
                  hashlib.sha256(b"".join(results)).hexdigest())
        return Outcome((self.label, kernel.now, wire, answer),
                       _phase_totals(tl), 0, 0.0)


def slices(sub) -> Tuple[slice, ...]:
    return tuple(slice(s, s + c) for s, c in zip(sub.start, sub.count))


def is_cc(job) -> bool:
    """Whether ``job`` runs the collective-computing pipeline (the rest
    are two-phase MPI-IO: the baseline reads and the write round trip)."""
    return not isinstance(job, RoundTripJob) and not job.block


def run_point(jobs: Tuple[Any, ...], timeline: bool = False,
              cache_bytes: Optional[int] = None) -> List[Any]:
    """Run one point's jobs in order: an :class:`Outcome` per job, or a
    :class:`Failure` for a job that raised.  ``cache_bytes`` sizes the
    process-wide block cache (default: leave it as it is).  Module-level
    so pool workers resolve it by name
    (``perfbench.workloads:run_point``)."""
    cache = datasource.GLOBAL_BLOCK_CACHE
    if cache_bytes is not None and (cache is None
                                    or cache.capacity_bytes != cache_bytes):
        datasource.GLOBAL_BLOCK_CACHE = datasource.BlockCache(cache_bytes)
    out: List[Any] = []
    for job in jobs:
        try:
            out.append(job.run(timeline))
        except Exception:  # a failed job is counted, not fatal
            out.append(Failure(job.label, traceback.format_exc()))
    return out


@dataclass(frozen=True)
class BenchWorkload:
    """A named list of points (each a tuple of jobs), the block-cache
    size they run with (``None``: the default), and, for seed 0 of
    ``weak-scaling``, the figure rows the serial outcomes must reproduce."""

    name: str
    points: Tuple[Tuple[Any, ...], ...]
    paper_rows: Optional[Callable[[List[Outcome]], List[list]]] = None
    cache_bytes: Optional[int] = None

    @property
    def jobs(self) -> List[Any]:
        """Every job, in pass order."""
        return [job for jobs in self.points for job in jobs]


def build(name: str, seed: int, smoke: bool = False) -> BenchWorkload:
    """The workload ``name`` for ``seed``; ``smoke`` shrinks it to a
    second or two for the self-tests."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    factories = {"weak-scaling": _weak_scaling, "ingest": _ingest,
                 "many-ranks": _many_ranks, "integrity": _integrity}
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return factories[name](seed * SEED_STRIDE, smoke)


def _weak_scaling(offset: int, smoke: bool) -> BenchWorkload:
    """Figure 10 ``--quick``: the calibration job, then two-phase and CC
    at P = 24/48/120 with 1 MiB per rank over 156 OSTs."""
    per_rank_mib = fig10.QUICK_KWARGS["per_rank_mib"]
    procs = fig10.QUICK_KWARGS["process_counts"][:1 if smoke else None]
    f = SeededField(climate_field, offset)
    p0 = procs[0]
    # The operator weight is an input of every job: calibrate it here,
    # as fig10.run does before its sweep.
    ops = fig10.calibrate_point(per_rank_mib=per_rank_mib, p0=p0)

    def workload(p: int) -> Workload:
        return interleaved_workload(p, per_rank_bytes=int(per_rank_mib * MiB))

    def platform(p: int) -> PlatformSpec:
        return hopper_platform(fig10._nodes_for(p), n_osts=fig10.N_OSTS)

    # calibrate_point's job (measure_io_time): CC with negligible compute.
    points = [(ObjectIOJob(f"calibrate/P={p0}", platform(p0), workload(p0),
                           SUM_OP.with_cost(1e-9), block=False, field=f),)]
    for kw in fig10.points(per_rank_mib, procs, ops):
        p = kw["nprocs"]
        points.append(tuple(
            ObjectIOJob(f"P={p}/{name}", platform(p), workload(p),
                        SUM_OP.with_cost(kw["ops"]), block=block, field=f)
            for name, block in (("two-phase", True), ("cc", False))))

    def paper_rows(outcomes: List[Outcome]) -> List[list]:
        # fig10.run_point's row: (P, mpi_s, cc_s, speedup, saved_s).
        rows = []
        for p, mpi, cc in zip(procs, outcomes[1::2], outcomes[2::2]):
            t_mpi, t_cc = mpi.row[1], cc.row[1]
            rows.append([p, round(t_mpi, 4), round(t_cc, 4),
                         round(t_mpi / t_cc, 3), round(t_mpi - t_cc, 4)])
        return rows

    return BenchWorkload("weak-scaling", tuple(points),
                         paper_rows=None if offset or smoke else paper_rows)


def _ingest(offset: int, smoke: bool) -> BenchWorkload:
    """The Figure 1 machine: 72 ranks on 6 nodes x 6 aggregators, 40
    OSTs, a 256 KiB collective buffer, float32 data and negligible
    compute.  Two-phase then CC read the same file in one point; its
    working set exceeds the block cache (:data:`INGEST_CACHE_BYTES`), so
    the cache evicts and both pipelines generate most blocks.  A write +
    read round trip then goes through the MPI-IO layer in the other
    direction."""
    iterations = 1 if smoke else INGEST_ITERATIONS
    rt_per_rank = (64 if smoke else 256) * KiB
    nodes, aggs, nprocs, n_osts, cb = 6, 6, 72, 40, 256 * KiB
    platform = hopper_platform(nodes, cores_per_node=12, n_osts=n_osts)
    hints = CollectiveHints(cb_buffer_size=cb, aggregators_per_node=aggs)
    f = SeededField(climate_field, offset)
    shape = dict(dtype=np.float32, time_steps=12, plane=16)
    w = interleaved_workload(
        nprocs, per_rank_bytes=iterations * nodes * aggs * cb // nprocs,
        **shape)
    op = SUM_OP.with_cost(1e-9)
    reads = tuple(ObjectIOJob(f"read/{name}", platform, w, op, block=block,
                              field=f, hints=hints, stripe_size=cb,
                              stripe_count=n_osts)
                  for name, block in (("two-phase", True), ("cc", False)))
    rt = interleaved_workload(nprocs, per_rank_bytes=rt_per_rank, **shape)
    roundtrip = (RoundTripJob("write+read", platform, rt, f, hints,
                              stripe_size=cb, stripe_count=n_osts),)
    # The smoke file (9 MiB) overflows its cache as well.
    return BenchWorkload("ingest", (reads, roundtrip),
                         cache_bytes=(4 * MiB if smoke
                                      else INGEST_CACHE_BYTES))


def _many_ranks(offset: int, smoke: bool) -> BenchWorkload:
    """Tiny data over many ranks and messages: Figure 11's jobs
    (MPI-12 MiB, CC-12 MiB and CC-24 MiB at P = 128/256, a 64 KiB
    buffer, a contiguous decomposition) and Figure 16 ``--quick``
    (16 ranks, CC and two-phase x one- and two-level, at 1/2/4 ranks
    per node)."""
    points: List[Tuple[Any, ...]] = []
    f = SeededField(climate_field, offset)
    op = SUM_OP.with_cost(fig11.OP_COST)
    procs = (128,) if smoke else fig11.QUICK_KWARGS["process_counts"]
    for kw in fig11.points(12.0, procs):
        p, total = kw["nprocs"], int(kw["total_mib_small"] * MiB)
        platform = hopper_platform(math.ceil(p / 24), n_osts=fig11.N_OSTS)
        w1 = fig11._contiguous_workload(p, total)
        w2 = fig11._contiguous_workload(p, 2 * total)
        points.append(tuple(
            ObjectIOJob(f"P={p}/{name}", platform, w, op, block=block,
                        field=f, hints=fig11.HINTS_FIG11)
            for name, w, block in (("mpi-12", w1, True), ("cc-12", w1, False),
                                   ("cc-24", w2, False))))
    nprocs, per_rank_kib, time_steps = 16, 192, 24
    w = interleaved_workload(nprocs, per_rank_bytes=per_rank_kib * KiB,
                             time_steps=time_steps)
    rpns = (2,) if smoke else fig16.QUICK_KWARGS["rpns"]
    for kw in fig16.points(nprocs, per_rank_kib, time_steps, rpns):
        label = (f"rpn={kw['rpn']}/{'two-phase' if kw['block'] else 'cc'}/"
                 f"{2 if kw['two_level'] else 1}lvl")
        # run_point returns (time, inter-node bytes, intra-node bytes, answer).
        points.append((FigureJob(label, fig16.run_point,
                                 tuple(sorted(kw.items())), (1, 2), w,
                                 MAXLOC_OP),))
    return BenchWorkload("many-ranks", tuple(points))


def _integrity(offset: int, smoke: bool) -> BenchWorkload:
    """The resilient path: Figure 14 ``--quick`` (24 ranks, fail-stop
    rates 0/0.1/0.4) and Figure 15 at 6 ranks (checksums off as the
    reference, then checksummed at corruption rate 0.2, which flips
    bits the CRC32C layer must detect and repair).  Each job is the
    figure's own ``run_point``, which returns (time, wire bytes, two
    fault counts, answer)."""
    points: List[Tuple[Any, ...]] = []
    kib14 = fig14.QUICK_KWARGS["per_rank_kib"]
    n14 = fig14.QUICK_KWARGS["nprocs"]
    w14 = interleaved_workload(n14, per_rank_bytes=kib14 * KiB)
    rates = (0.1,) if smoke else fig14.QUICK_KWARGS["fault_rates"]
    for kw in fig14.points(n14, kib14, rates, fig14.SEED):
        label = f"faults={kw['rate']}/{'two-phase' if kw['block'] else 'cc'}"
        points.append((FigureJob(label, fig14.run_point,
                                 tuple(sorted(kw.items())), (1,), w14,
                                 SUM_OP),))
    n15, kib15 = 6, fig15.QUICK_KWARGS["per_rank_kib"]
    w15 = interleaved_workload(n15, per_rank_bytes=kib15 * KiB)
    for kw in fig15.points(n15, kib15, (0.2,), fig15.SEED):
        label = f"corrupt={kw['rate']}/{'two-phase' if kw['block'] else 'cc'}"
        points.append((FigureJob(label, fig15.run_point,
                                 tuple(sorted(kw.items())), (1,), w15,
                                 SUM_OP),))
    return BenchWorkload("integrity", tuple(points))
