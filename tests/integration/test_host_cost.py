"""Host-cost guards: a rank's host work in the offset exchange and node
placement must not grow with the job size, and a job must not schedule
kernel events that model nothing.

One Figure 11-shaped collective-computing job (contiguous decomposition,
64 KiB collective buffer, one aggregator per node, all-to-all reduce)
runs at P = 64 and P = 128, counting the calls of four per-rank
primitives: the allgather's ``wire_size``, the placement's
``Machine.node_of_rank``, the plan memo's ``RunList.signature`` and
``RunList.clip``, which the schedule and, under ``REPRO_CHECK`` (on in
this suite), the plan sanitizer call.  Linear total work grows each
count about 2x when P doubles; a per-peer walk repeated on every rank
(or a check clipping every (rank, window) pair) grows it 4x.  The bound
is 2.5x.  The largest of those jobs also has a budget: the events it
schedules are pinned, and it creates fewer processes than it sends
messages.
"""

import math

import pytest

from repro.cluster import Machine
from repro.config import MiB
from repro.core import SUM_OP
from repro.dataspace import RunList
from repro.experiments import fig11_overhead as fig11
from repro.experiments.common import hopper_platform, run_objectio_job
from repro.flags import override
from repro.mpi import collectives
from repro.obs import metrics
from repro.sim import Process

#: Largest allowed growth of a call count when P doubles.
MAX_GROWTH = 2.5
#: Scheduled events of the P = 128 job below, pinned.  A k-core map
#: fan-out used to cost 4k+1 events (14,350 in all); as one k-unit hold
#: it costs one.  Messages and OST requests left their processes without
#: moving the count: a background occupancy schedules the same events.
EVENTS_P128 = 7825


def _counted_job(monkeypatch, nprocs):
    counts = {"wire_size": 0, "node_of_rank": 0, "signature": 0, "clip": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    op = SUM_OP.with_cost(fig11.OP_COST)
    platform = hopper_platform(math.ceil(nprocs / 24), n_osts=fig11.N_OSTS)
    workload = fig11._contiguous_workload(nprocs, 1 * MiB)
    with monkeypatch.context() as mp:
        mp.setattr(collectives, "wire_size",
                   counting("wire_size", collectives.wire_size))
        mp.setattr(Machine, "node_of_rank",
                   counting("node_of_rank", Machine.node_of_rank))
        mp.setattr(RunList, "signature",
                   counting("signature", RunList.signature))
        mp.setattr(RunList, "clip", counting("clip", RunList.clip))
        out = run_objectio_job(platform, workload, op, block=False,
                               reduce_mode="all_to_all",
                               hints=fig11.HINTS_FIG11)
    return counts, out


def test_per_rank_host_work_is_independent_of_p(monkeypatch):
    small, small_out = _counted_job(monkeypatch, 64)
    large, large_out = _counted_job(monkeypatch, 128)
    assert small_out.global_result is not None
    assert large_out.global_result is not None
    for name in small:
        assert small[name] > 0, name
        growth = large[name] / small[name]
        assert growth <= MAX_GROWTH, (
            f"{name}: {small[name]} calls at P=64, {large[name]} at P=128 "
            f"({growth:.2f}x > {MAX_GROWTH}x)")


@pytest.fixture(scope="module")
def fig11_p128():
    """The P = 128 job with metrics on: its outcome, its counters and
    the number of :class:`~repro.sim.Process` objects it created."""
    nprocs = 128
    op = SUM_OP.with_cost(fig11.OP_COST)
    platform = hopper_platform(math.ceil(nprocs / 24), n_osts=fig11.N_OSTS)
    workload = fig11._contiguous_workload(nprocs, 1 * MiB)
    created = [0]
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created[0] += 1
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, override(obs=True):
        mp.setattr(Process, "__init__", counting_init)
        out = run_objectio_job(platform, workload, op, block=False,
                               reduce_mode="all_to_all",
                               hints=fig11.HINTS_FIG11)
        counters = metrics.current().counters
    assert out.global_result is not None
    return out, counters, created[0]


def test_fig11_job_event_budget(fig11_p128):
    _out, counters, _processes = fig11_p128
    assert counters["sim.runs"] == 1
    assert counters["sim.events"] == EVENTS_P128, counters["sim.events"]


def test_fig11_job_process_budget(fig11_p128):
    """A message or an OST request is no process: the job creates
    fewer processes than it sends messages (1,663 for 1,211 when each
    had one, 388 without)."""
    _out, counters, processes = fig11_p128
    assert processes < counters["mpi.messages"], (
        processes, counters["mpi.messages"])
