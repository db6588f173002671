"""Collective-protocol verifier tests: cross-rank mismatches raise a
precise MPIError, legitimate programs (including nested collectives)
pass, and deadlock reports name who is blocked on whom."""

import numpy as np
import pytest

from repro.check.protocol import (CollectiveLedger, find_rank_cycle,
                                  payload_signature)
from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import DeadlockError, MPIError
from repro.flags import override
from repro.mpi import collectives as coll, mpi_run
from repro.mpi.op import SUM
from repro.sim import Kernel


def machine(nodes=2, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


# -- cross-rank mismatch detection ------------------------------------------

def test_mismatched_collective_order_across_ranks():
    """Rank 1 enters bcast while everyone else enters barrier — the
    classic SPMD divergence the verifier exists to catch."""
    m = machine()

    def main(ctx):
        if ctx.rank == 1:
            yield from coll.bcast(ctx.comm, "oops", root=0)
        else:
            yield from coll.barrier(ctx.comm)
        return None

    with override(check=True):
        with pytest.raises(MPIError, match="collective protocol mismatch"):
            mpi_run(m, 4, main)


def test_strict_payload_shape_mismatch_in_allreduce():
    m = machine()

    def main(ctx):
        n = 5 if ctx.rank == 2 else 4
        total = yield from coll.allreduce(
            ctx.comm, np.ones(n, dtype=np.float64), SUM)
        return total

    with override(check=True):
        with pytest.raises(MPIError, match="payload mismatch"):
            mpi_run(m, 4, main)


def test_nested_and_varying_payload_collectives_pass():
    """allreduce traces its inner reduce+bcast identically on every
    rank, and allgather/alltoall legitimately carry per-rank payloads
    of differing sizes — none of this may false-positive."""
    m = machine()

    def main(ctx):
        yield from coll.barrier(ctx.comm)
        total = yield from coll.allreduce(
            ctx.comm, np.full(3, ctx.rank, dtype=np.int64), SUM)
        lists = yield from coll.allgather(ctx.comm, list(range(ctx.rank)))
        swap = yield from coll.alltoall(
            ctx.comm, [bytes(ctx.rank + d) for d in range(ctx.size)])
        return int(total.sum()), [len(x) for x in lists], len(swap)

    with override(check=True):
        res = mpi_run(m, 4, main)
    assert res[0][0] == (0 + 1 + 2 + 3) * 3
    assert res[0][1] == [0, 1, 2, 3]


def test_sanitizer_off_means_no_ledger():
    """The same payload-type divergence that the verifier flags runs to
    completion with REPRO_CHECK off (no ledger is ever attached)."""
    def main(ctx):
        value = 1 if ctx.rank == 0 else 1.0  # int vs float signatures
        total = yield from coll.allreduce(ctx.comm, value, SUM)
        return total

    with override(check=False):
        res = mpi_run(machine(), 4, main)
    assert res[0] == 4.0

    with override(check=True):
        with pytest.raises(MPIError, match="payload mismatch"):
            mpi_run(machine(), 4, main)


# -- ledger unit behaviour ---------------------------------------------------

def test_none_payload_is_a_wildcard():
    """Empty-region ranks reduce a None identity payload; the first
    real payload upgrades the expectation and later Nones still match."""
    ledger = CollectiveLedger(comm_id=7, nprocs=3)
    ledger.record(0, "reduce", None)
    ledger.record(1, "reduce", np.zeros((2, 2), dtype=np.float32))
    ledger.record(2, "reduce", None)
    with pytest.raises(MPIError, match="payload mismatch"):
        ledger.record(0, "reduce", np.zeros(4, dtype=np.float32))
        ledger.record(1, "reduce", np.zeros(5, dtype=np.float32))


def test_matched_slots_are_pruned():
    ledger = CollectiveLedger(comm_id=1, nprocs=2)
    for seq in range(100):
        ledger.record(0, "barrier", None)
        ledger.record(1, "barrier", None)
    assert not ledger._expected  # memory bounded by rank skew
    assert ledger.calls == 200


def test_finish_reports_differing_collective_counts():
    ledger = CollectiveLedger(comm_id=3, nprocs=2)
    ledger.record(0, "barrier", None)
    ledger.record(1, "barrier", None)
    ledger.record(0, "barrier", None)
    with pytest.raises(MPIError, match="differing numbers of collectives"):
        ledger.finish()


def test_a_missing_trailing_collective_fails_the_job():
    """Every rank barriers, then only rank 0 broadcasts.  The root's
    sends complete and every rank returns, so only the end-of-job
    ledger check sees the collective the other ranks skipped."""
    m = machine()

    def main(ctx):
        yield from coll.barrier(ctx.comm)
        if ctx.rank == 0:
            yield from coll.bcast(ctx.comm, "late", root=0)
        return ctx.rank

    with override(check=True):
        with pytest.raises(MPIError, match=(
                r"differing numbers of collectives \(rank 0: 2, "
                r"rank 1: 1, rank 2: 1, rank 3: 1\)")):
            mpi_run(m, 4, main)


def test_a_split_communicator_is_finished_too():
    """The same skipped collective on a communicator split from the
    world one: the world ledger balances, the split one does not."""
    m = machine()

    def main(ctx):
        half = yield from ctx.comm.split(ctx.rank % 2)
        if half.rank == 0:
            yield from coll.bcast(half, "late", root=0)
        return ctx.rank

    with override(check=True):
        with pytest.raises(MPIError, match=(
                r"differing numbers of collectives \(rank 0: 1, "
                r"rank 1: 0\)")):
            mpi_run(m, 4, main)


def test_payload_signature_shapes():
    assert payload_signature(None) == ("none",)
    assert payload_signature(np.zeros((2, 3), np.int32)) == \
        ("ndarray", "int32", (2, 3))
    assert payload_signature([1, 2, 3]) == ("list", 3)
    assert payload_signature("hello") == ("str",)


def test_find_rank_cycle():
    assert find_rank_cycle({0: 1, 1: 0}) == [0, 1]
    assert find_rank_cycle({0: 1, 1: 2, 2: 1}) == [1, 2]
    assert find_rank_cycle({0: 1, 1: 2}) is None
    assert find_rank_cycle({}) is None


# -- deadlock reports --------------------------------------------------------

def test_deadlock_report_names_the_cycle():
    m = machine()

    def main(ctx):
        peer = 1 - ctx.rank
        data = yield from ctx.comm.recv(peer, tag=5)  # nobody sends
        return data

    with override(check=True):
        with pytest.raises(DeadlockError) as err:
            mpi_run(m, 2, main)
    msg = str(err.value)
    assert "blocked in recv(source=1, tag=5)" in msg
    assert "blocked in recv(source=0, tag=5)" in msg
    assert "wait-for cycle" in msg
    assert "rank 0 -[tag 5]->" in msg


def test_deadlock_report_works_with_sanitizer_off():
    """Satellite contract: per-rank blocked state appears in the
    DeadlockError even without REPRO_CHECK."""
    m = machine()

    def main(ctx):
        if ctx.rank == 0:
            data = yield from ctx.comm.recv(3, tag=9)
            return data
        return None

    with override(check=False):
        with pytest.raises(DeadlockError) as err:
            mpi_run(m, 4, main)
    msg = str(err.value)
    assert "process(es) still waiting" in msg
    assert "blocked in recv(source=3, tag=9)" in msg


def test_deadlock_report_annotates_last_collective():
    """With the ledger attached, the report says which collective each
    blocked rank last entered — the 'rank N blocked in which phase'
    upgrade over the old 'queue drained' message."""
    m = machine()

    def main(ctx):
        yield from coll.barrier(ctx.comm)
        if ctx.rank == 0:
            yield from ctx.comm.recv(1, tag=2)
        return None

    with override(check=True):
        with pytest.raises(DeadlockError) as err:
            mpi_run(m, 2, main)
    msg = str(err.value)
    assert "last collective: 'barrier' (#0)" in msg


def test_deadlock_report_renders_collective_tags():
    """A rank stuck inside a collective shows the reserved-tag space in
    human terms."""
    m = machine()

    def main(ctx):
        if ctx.rank == 0:
            yield from coll.bcast(ctx.comm, "x", root=1)
        return None  # rank 1 skips the collective entirely

    with override(check=False):
        with pytest.raises(DeadlockError) as err:
            mpi_run(m, 2, main)
    assert "collective tag #" in str(err.value)
