"""Public entry points for analysis-in-I/O.

:func:`object_get` is the library's front door: give it an
:class:`~repro.core.ObjectIO` and it dispatches to

* the **collective-computing pipeline** (``mode="collective"``,
  ``block=False``) — the paper's contribution;
* the **traditional path** (``block=True`` or ``mode="independent"``) —
  read all the data first (two-phase collective or independent I/O),
  compute afterwards, reduce with MPI — the paper's baseline
  (Figure 5).

Both paths return the same :class:`~repro.core.runtime.CCResult` shape
and, crucially, the same numbers; only the simulated time differs.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

import numpy as np

from ..dataspace import DatasetSpec
from ..errors import CollectiveComputingError
from ..io import (AccessRequest, collective_read, independent_read,
                  iteration_windows)
from ..io.twophase import read_windows
from ..mpi import RankContext
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .map_engine import linear_indices_of_runs
from .metadata import CCStats, PartialResult
from .object_io import ObjectIO
from .reduction import combine_partials, global_reduce
from .runtime import CCResult, cc_read_compute, map_window


def compute_after_read(ctx: RankContext, oio: ObjectIO,
                       request: AccessRequest, buf: np.ndarray,
                       timeline: Optional[PhaseTimeline] = None,
                       stats: Optional[CCStats] = None) -> Generator:
    """The traditional path's second half, shared by the plain and the
    resilient baselines: map the rank's fully-read packed buffer, then
    tree-reduce to the root.  Returns a :class:`CCResult`."""
    payload = None
    if request.nbytes:
        values = buf.view(oio.spec.dtype)
        indices = (linear_indices_of_runs(oio.spec, request.runs)
                   if oio.op.needs_indices else None)
        t0 = ctx.kernel.now
        payload = oio.op.map_chunk(values, indices)
        yield from ctx.compute(values.size, oio.op.ops_per_element)
        if stats is not None:
            stats.map_elements += values.size
            stats.map_time += ctx.kernel.now - t0
        if timeline is not None:
            timeline.record(ctx.rank, 0, "compute", t0, ctx.kernel.now)
    result = CCResult(stats=stats)
    result.local = None if payload is None else oio.op.finalize(payload)
    t1 = ctx.kernel.now
    result.global_result = yield from global_reduce(ctx, oio.op, payload,
                                                    oio.root, stats)
    if stats is not None and ctx.rank == oio.root:
        stats.local_reduction_time += ctx.kernel.now - t1
    return result


def traditional_read_compute(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                             timeline: Optional[PhaseTimeline] = None,
                             stats: Optional[CCStats] = None
                             ) -> Generator:
    """The baseline: complete the I/O, then compute, then MPI_Reduce.

    ``oio.mode`` selects two-phase collective I/O or per-rank
    independent I/O for the read stage.  Computation cannot start until
    the rank's full buffer has arrived — the blocking constraint the
    paper breaks.
    """
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    if oio.mode == "collective":
        buf = yield from collective_read(ctx, file, request, oio.hints,
                                         timeline)
    else:
        buf = yield from independent_read(ctx, file, request)
    result = yield from compute_after_read(ctx, oio, request, buf, timeline,
                                           stats)
    return result


def local_read_compute(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                       timeline: Optional[PhaseTimeline] = None,
                       stats: Optional[CCStats] = None) -> Generator:
    """Independent (non-collective) analysis-in-I/O.

    The paper's ``io.mode = independent`` with ``io.block = false``:
    each rank sweeps *its own* request in element-aligned
    collective-buffer-size windows
    (:func:`~repro.io.aggregation.iteration_windows` over its own
    extent) and maps each one — with ``hints.pipeline`` reading the
    next window while mapping the current one, the collective-computing
    overlap without aggregation (useful when ranks' data does not
    interleave).  Ends with the same global tree reduce as the
    collective path.
    """
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    runs = request.runs
    spec = oio.spec
    payload = None
    partials: List[PartialResult] = []
    if len(runs):
        windows = [runs.clip(lo, hi) for lo, hi in iteration_windows(
            runs.extent(), runs, max(oio.hints.cb_buffer_size, spec.itemsize),
            (spec.file_offset, spec.itemsize))]

        def map_own(t: int, read_lo: int, window_data: np.ndarray):
            partials.extend((yield from map_window(
                ctx, oio, window_data, read_lo, [(ctx.rank, windows[t])], t,
                stats, timeline, fan_out=False)))

        yield from read_windows(ctx, file, [w.extent() for w in windows],
                                oio.hints.pipeline, map_own, timeline)
        payload = yield from combine_partials(ctx, oio.op, partials, stats)
    result = CCResult(stats=stats)
    result.local = None if payload is None else oio.op.finalize(payload)
    result.global_result = yield from global_reduce(ctx, oio.op, payload,
                                                    oio.root, stats)
    return result


def object_get(ctx: RankContext, file: PFSFile, oio: ObjectIO,
               timeline: Optional[PhaseTimeline] = None,
               stats: Optional[CCStats] = None) -> Generator:
    """Analysis-in-I/O front door (collective call on all ranks).

    Dispatch rules (paper §III-A): ``block=True`` runs the traditional
    path (I/O completes, then compute, then reduce) over the configured
    I/O mode; ``block=False`` runs the collective-computing pipeline
    for ``mode="collective"`` and the local per-rank pipeline
    (:func:`local_read_compute`) for ``mode="independent"``.
    """
    if oio.block:
        result = yield from traditional_read_compute(ctx, file, oio,
                                                     timeline, stats)
    elif oio.mode == "independent":
        result = yield from local_read_compute(ctx, file, oio, timeline,
                                               stats)
    else:
        result = yield from cc_read_compute(ctx, file, oio, timeline, stats)
    return result


def locate(spec: DatasetSpec, loc_result: Tuple[float, int]
           ) -> Tuple[float, Tuple[int, ...]]:
    """Convert a ``(value, linear_index)`` result of a ``minloc`` /
    ``maxloc`` operator into ``(value, logical coordinates)``."""
    if not isinstance(loc_result, tuple) or len(loc_result) != 2:
        raise CollectiveComputingError(
            f"expected a (value, linear_index) pair, got {loc_result!r}"
        )
    value, linear = loc_result
    return (value, spec.coords_of(int(linear)))
