"""``CollectiveHints.pipeline`` takes effect on every read path.

All read paths share one window reader that posts the next window's
read before handling the current one when ``pipeline`` is set, and
after it otherwise.  On a machine small enough to reason about, the
read-ahead must finish strictly earlier while leaving every answer bit
untouched — on the raw two-phase read, both collective-computing reduce
modes, independent (local) mode and the resilient protocols with no
faults attached.  The ``pipeline=False`` schedules no figure runs are
pinned to their exact simulated completion times.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import ObjectIO, SUM_OP, object_get
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.faults import resilient_cc_read_compute, resilient_collective_read
from repro.io import AccessRequest, CollectiveHints, collective_read
from repro.mpi import mpi_run
from repro.sim import Kernel

DSPEC = DatasetSpec((24, 8, 16), np.float64, name="T")
NPROCS = 8
#: Interleaved decomposition: every aggregator window feeds several
#: ranks.  The contiguous one gives each rank 3 KiB of its own, i.e.
#: three windows per rank in independent mode.
INTERLEAVED = block_partition(Subarray((0, 0, 0), DSPEC.shape), NPROCS,
                              axis=1)
CONTIGUOUS = block_partition(Subarray((0, 0, 0), DSPEC.shape), NPROCS,
                             axis=0)
#: A map costly enough that reading ahead has compute to hide behind.
OP = SUM_OP.with_cost(40.0)


def field(idx):
    return np.sin(idx.astype(np.float64) * 0.01) + idx * 1e-4


def _hints(pipeline, two_level=False):
    return CollectiveHints(cb_buffer_size=1024, pipeline=pipeline,
                           two_level=two_level)


def _run(body, parts):
    """Run ``body(ctx, part)`` on every rank; returns the per-rank
    results and the kernel clock at quiescence."""
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)

    def main(ctx):
        return (yield from body(ctx, f, parts[ctx.rank]))

    results = mpi_run(m, NPROCS, main)
    return results, k.now


def raw_read(pipeline, two_level=False):
    def body(ctx, f, part):
        req = AccessRequest.from_subarray(DSPEC, part)
        buf = yield from collective_read(ctx, f, req,
                                         _hints(pipeline, two_level))
        return bytes(buf)
    return _run(body, INTERLEAVED)


def cc(pipeline, two_level=False, reduce_mode="all_to_all",
       mode="collective", parts=INTERLEAVED):
    def body(ctx, f, part):
        oio = ObjectIO(DSPEC, part, OP, mode=mode,
                       reduce_mode=reduce_mode,
                       hints=_hints(pipeline, two_level))
        res = yield from object_get(ctx, f, oio)
        return (res.local, res.global_result, res.per_rank)
    return _run(body, parts)


def resilient_raw(pipeline):
    def body(ctx, f, part):
        req = AccessRequest.from_subarray(DSPEC, part)
        buf = yield from resilient_collective_read(ctx, f, req,
                                                   _hints(pipeline))
        return bytes(buf)
    return _run(body, INTERLEAVED)


def resilient_cc(pipeline, reduce_mode):
    def body(ctx, f, part):
        oio = ObjectIO(DSPEC, part, OP, reduce_mode=reduce_mode,
                       hints=_hints(pipeline))
        res = yield from resilient_cc_read_compute(ctx, f, oio)
        return (res.local, res.global_result, res.per_rank)
    return _run(body, INTERLEAVED)


PATHS = {
    "raw": raw_read,
    "cc-all-to-all": lambda p: cc(p),
    "cc-all-to-one": lambda p: cc(p, reduce_mode="all_to_one"),
    "independent": lambda p: cc(p, mode="independent", parts=CONTIGUOUS),
    "resilient-raw": resilient_raw,
    "resilient-cc-all-to-all": lambda p: resilient_cc(p, "all_to_all"),
    "resilient-cc-all-to-one": lambda p: resilient_cc(p, "all_to_one"),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_pipeline_reads_ahead_without_changing_answers(path):
    ahead, t_ahead = PATHS[path](True)
    blocking, t_blocking = PATHS[path](False)
    assert repr(ahead) == repr(blocking)
    assert t_ahead < t_blocking


#: Exact simulated completion times of the blocking (``pipeline=False``)
#: schedules, which no figure exercises, as the per-path read loops that
#: preceded the shared reader produced them.
BLOCKING_PINS = {
    ("raw", False): 0.019122319822222223,
    ("raw", True): 0.019104304822222216,
    ("all_to_all", False): 0.019111380355555548,
    ("all_to_all", True): 0.01912887215555555,
    ("all_to_one", False): 0.01914025955555555,
    ("all_to_one", True): 0.01916130015555555,
}


@pytest.mark.parametrize("path, two_level", sorted(BLOCKING_PINS))
def test_blocking_schedule_times_are_pinned(path, two_level):
    if path == "raw":
        _res, now = raw_read(False, two_level)
    else:
        _res, now = cc(False, two_level, reduce_mode=path)
    assert now == BLOCKING_PINS[(path, two_level)]
