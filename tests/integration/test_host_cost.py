"""Host-cost guard: a rank's host work in the offset exchange and node
placement must not grow with the job size.

One Figure 11-shaped collective-computing job (contiguous decomposition,
64 KiB collective buffer, one aggregator per node, all-to-all reduce)
runs at P = 64 and P = 128, counting the calls of three per-rank
primitives: the allgather's ``wire_size``, the placement's
``Machine.node_of_rank`` and the plan memo's ``RunList.signature``.
Linear total work grows each count about 2x when P doubles; a per-peer
walk repeated on every rank grows it 4x.  The bound is 2.5x.
"""

import math

from repro.cluster import Machine
from repro.config import MiB
from repro.core import SUM_OP
from repro.dataspace import RunList
from repro.experiments import fig11_overhead as fig11
from repro.experiments.common import hopper_platform, run_objectio_job
from repro.mpi import collectives

#: Largest allowed growth of a call count when P doubles.
MAX_GROWTH = 2.5


def _counted_job(monkeypatch, nprocs):
    counts = {"wire_size": 0, "node_of_rank": 0, "signature": 0}

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
