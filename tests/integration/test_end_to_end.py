"""End-to-end integration tests: whole jobs on realistic (small)
machines, timing invariants, and an injected straggling disk."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import CCStats, ObjectIO, SUM_OP, object_get
from repro.faults import FaultInjector, FaultPlan
from repro.io import CollectiveHints
from repro.mpi import mpi_run
from repro.sim import Kernel
from repro.workloads.climate import interleaved_workload


def run_workload(workload, op, *, block, nodes=2, cores=8, n_osts=4,
                 hints=None, stats=None, faults=None):
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=nodes, cores_per_node=cores,
                                      n_osts=n_osts, stripe_size=4096))
    if faults is not None:
        FaultInjector.attach(m, faults)
    f = m.fs.create_procedural_file("w.nc", workload.dspec.n_elements,
                                    dtype=workload.dspec.dtype,
                                    stripe_size=4096)
    hints = hints or CollectiveHints(cb_buffer_size=16384)

    def main(ctx):
        oio = ObjectIO(workload.dspec, workload.parts[ctx.rank], op,
                       block=block, hints=hints)
        res = yield from object_get(ctx, f, oio, stats=stats)
        return res

    results = mpi_run(m, workload.nprocs, main)
    return k.now, results, m


@pytest.fixture(scope="module")
def workload():
    return interleaved_workload(16, per_rank_bytes=64 * 1024,
                                dtype=np.float64, time_steps=8, plane=8)


def test_cc_no_slower_than_traditional(workload):
    """For a compute-bearing workload CC should never lose to the
    blocking baseline."""
    op = SUM_OP.with_cost(10.0)
    t_tr, res_tr, _ = run_workload(workload, op, block=True)
    t_cc, res_cc, _ = run_workload(workload, op, block=False)
    assert res_cc[0].global_result == pytest.approx(res_tr[0].global_result)
    assert t_cc <= t_tr * 1.001


def test_cc_moves_fewer_bytes(workload):
    """The headline property: CC's total network traffic is far below
    the baseline's (raw data never travels)."""
    op = SUM_OP
    _, _, m_tr = run_workload(workload, op, block=True)
    _, _, m_cc = run_workload(workload, op, block=False)
    tr_bytes = m_tr.network.inter_node_bytes + m_tr.network.intra_node_bytes
    cc_bytes = m_cc.network.inter_node_bytes + m_cc.network.intra_node_bytes
    # Both include the read-inject traffic (= data size); the baseline
    # additionally shuffles every raw byte.
    assert cc_bytes < tr_bytes * 0.7


def test_ost_straggler_slows_but_stays_correct(workload):
    """A quarter of the OST requests served 20x slower (a straggling
    disk): the plain path needs no recovery, only more time."""
    op = SUM_OP
    t_ok, res_ok, _ = run_workload(workload, op, block=False)
    t_slow, res_slow, m = run_workload(
        workload, op, block=False,
        faults=FaultPlan(ost_slow_rate=0.25, ost_slow_factor=20.0))
    assert res_slow[0].global_result == pytest.approx(
        res_ok[0].global_result)
    assert {r.kind for r in m.faults.injected()} == {"inject:ost-slow"}
    assert t_slow > t_ok * 1.5


def test_determinism_same_run_same_time(workload):
    op = SUM_OP.with_cost(2.0)
    t1, res1, _ = run_workload(workload, op, block=False)
    t2, res2, _ = run_workload(workload, op, block=False)
    assert t1 == t2
    assert res1[0].global_result == res2[0].global_result


def test_stats_are_consistent(workload):
    stats = CCStats()
    run_workload(workload, SUM_OP, block=False, stats=stats)
    assert stats.map_elements == workload.gsub.n_elements
    assert stats.partial_count > 0
    assert stats.shuffle_bytes == stats.metadata_bytes + stats.payload_bytes
    assert sum(stats.partials_by_rank.values()) == stats.partial_count


def test_mixed_collective_calls_in_one_program(workload):
    """Several different collectives + CC calls back to back in one
    program exercise tag-stream separation end to end."""
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=8,
                                      n_osts=4, stripe_size=4096))
    f = m.fs.create_procedural_file("w.nc", workload.dspec.n_elements,
                                    dtype=np.float64, stripe_size=4096)
    from repro.mpi import collectives as coll

    def main(ctx):
        oio = ObjectIO(workload.dspec, workload.parts[ctx.rank], SUM_OP,
                       hints=CollectiveHints(cb_buffer_size=16384))
        first = yield from object_get(ctx, f, oio)
        total = yield from coll.allreduce(ctx.comm, 1, __import__(
            "repro.mpi", fromlist=["SUM"]).SUM)
        second = yield from object_get(
            ctx, f, ObjectIO(workload.dspec, workload.parts[ctx.rank],
                             SUM_OP, block=True,
                             hints=CollectiveHints(cb_buffer_size=16384)))
        yield from coll.barrier(ctx.comm)
        return (first.global_result, total, second.global_result)

    res = mpi_run(m, 16, main)
    g1, total, g2 = res[0]
    assert total == 16
    assert g1 == pytest.approx(g2)
