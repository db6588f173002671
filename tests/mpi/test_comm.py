"""Unit tests for point-to-point messaging and matching semantics."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import MPIError
from repro.flags import override
from repro.mpi import Communicator, collectives, mpi_run, wire_size
from repro.mpi.op import SUM
from repro.obs import metrics
from repro.sim import Kernel


def machine(nodes=2, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


def run(nprocs, main, nodes=2, cores=4):
    m = machine(nodes, cores)
    return m, mpi_run(m, nprocs, main)


def test_send_recv_roundtrip():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send({"a": 1}, dest=1, tag=7)
            return None
        data = yield from ctx.comm.recv(source=0, tag=7)
        return data

    _, res = run(2, main)
    assert res[1] == {"a": 1}


def test_tag_selective_matching():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("first", dest=1, tag=1)
            yield from ctx.comm.send("second", dest=1, tag=2)
            return None
        second = yield from ctx.comm.recv(0, tag=2)
        first = yield from ctx.comm.recv(0, tag=1)
        return (first, second)

    _, res = run(2, main)
    assert res[1] == ("first", "second")


def test_non_overtaking_same_pair_same_tag():
    """Two messages between the same pair arrive in send order even
    though the first is much larger (slower on the wire)."""
    def main(ctx):
        if ctx.rank == 0:
            r1 = ctx.comm.isend(np.zeros(100_000, dtype=np.uint8), 1, tag=0)
            r2 = ctx.comm.isend("tiny", 1, tag=0)
            yield r1.event
            yield r2.event
            return None
        a = yield from ctx.comm.recv(0, tag=0)
        b = yield from ctx.comm.recv(0, tag=0)
        return (getattr(a, "nbytes", None), b)

    _, res = run(2, main)
    assert res[1] == (100_000, "tiny")


def test_unexpected_message_buffered():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("early", dest=1)
            return None
        yield ctx.kernel.timeout(1.0)  # recv posted long after arrival
        data = yield from ctx.comm.recv(0, tag=0)
        return data

    _, res = run(2, main)
    assert res[1] == "early"


def test_isend_overlaps_with_work():
    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(np.zeros(10_000, np.uint8), 1)
            yield ctx.kernel.timeout(0.5)
            yield req.event
            return ctx.kernel.now
        yield from ctx.comm.recv(0, tag=0)
        return None

    m, res = run(2, main)
    assert res[0] == pytest.approx(0.5, rel=0.01)  # send hidden by work


def test_request_wait_unwraps_message():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send([1, 2, 3], dest=1)
            return None
        req = ctx.comm.irecv(0, tag=0)
        data = yield from req.wait()
        return data

    _, res = run(2, main)
    assert res[1] == [1, 2, 3]


def test_bad_ranks_and_tags_rejected():
    def main(ctx):
        yield ctx.kernel.timeout(0)
        with pytest.raises(MPIError):
            ctx.comm.isend("x", dest=5)
        with pytest.raises(MPIError):
            ctx.comm.isend("x", dest=0, tag=-2)
        with pytest.raises(MPIError):
            ctx.comm.irecv(source=9, tag=0)
        with pytest.raises(MPIError):
            ctx.comm.irecv(0, -2)
        return "checked"

    m = machine()
    comm = Communicator(m.kernel, m, 2)
    comm.handle(0)
    with pytest.raises(MPIError):
        comm.handle(2)
    assert mpi_run(machine(), 2, main) == ["checked", "checked"]


def test_negative_message_size_rejected_at_the_call():
    """``isend`` refuses a negative ``nbytes`` itself, as it does a
    negative tag: nothing is counted, and nothing is left to fail later
    inside ``kernel.run()``."""
    def main(ctx):
        yield ctx.kernel.timeout(0)
        if ctx.rank == 0:
            with pytest.raises(MPIError, match="negative message size"):
                ctx.comm.isend(b"x", 1, 0, nbytes=-5)
        return "checked"

    with override(obs=True):
        _, res = run(2, main)
        counters = metrics.current().counters
    assert res == ["checked", "checked"]
    assert counters.get("mpi.messages", 0) == 0
    assert counters.get("mpi.wire_bytes", 0) == 0


def test_keyed_tables_match_exactly_and_drain():
    """Receives match by exact (source, tag) key, FIFO within a key, and
    a key leaves its table once its queue empties."""
    def crossed(ctx):
        # Messages arrive in the opposite order to the posted receives.
        if ctx.rank == 0:
            yield from ctx.comm.send("for-tag-2", dest=1, tag=2)
            yield from ctx.comm.send("for-tag-1", dest=1, tag=1)
            return None
        first = ctx.comm.irecv(0, tag=1)
        second = ctx.comm.irecv(0, tag=2)
        a = yield from first.wait()
        b = yield from second.wait()
        return (a, b)

    _, res = run(2, crossed)
    assert res[1] == ("for-tag-1", "for-tag-2")

    def one_key(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send("one", dest=1, tag=4)
            yield from ctx.comm.send("two", dest=1, tag=4)
            return None
        first = ctx.comm.irecv(0, tag=4)
        second = ctx.comm.irecv(0, tag=4)
        b = yield from second.wait()
        a = yield from first.wait()
        return (a, b)

    _, res = run(2, one_key)
    assert res[1] == ("one", "two")

    def cancelled(ctx):
        if ctx.rank == 1:
            req = ctx.comm.irecv(0, tag=6)
            assert (0, 6) in ctx.comm.comm._posted[1]
            assert req.cancel()
            assert (0, 6) not in ctx.comm.comm._posted[1]
        yield ctx.kernel.timeout(0)
        return None

    run(2, cancelled)

    comms = []

    def collectives_job(ctx):
        comms.append(ctx.comm.comm)
        total = yield from collectives.allreduce(ctx.comm, ctx.rank, SUM)
        everyone = yield from collectives.allgather(ctx.comm, ctx.rank)
        swapped = yield from collectives.alltoall(
            ctx.comm, [ctx.rank] * ctx.size)
        yield from collectives.barrier(ctx.comm)
        return total, everyone, swapped

    _, res = run(5, collectives_job)
    assert res[3] == (10, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    comm = comms[0]
    assert all(c is comm for c in comms)
    assert comm._posted == [{}] * 5
    assert comm._unexpected == [{}] * 5


def test_message_accounting():
    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.zeros(100, np.uint8), 1)
        else:
            yield from ctx.comm.recv(0, tag=0)
        return None

    m, _ = run(2, main)
    # find the communicator's counters via network traffic
    assert m.network.inter_node_bytes + m.network.intra_node_bytes >= 100


def test_wire_size_rules():
    assert wire_size(np.zeros(10, np.float64)) == 80
    assert wire_size(b"abc") == 3
    assert wire_size(3) == 8
    assert wire_size(3.14) == 8
    assert wire_size(None) == 1
    assert wire_size("héllo") == len("héllo".encode())
    assert wire_size((1, 2)) == 16 + 16
    assert wire_size({"k": 1}) == 16 + wire_size("k") + 8

    class Custom:
        def wire_size(self):
            return 123

    assert wire_size(Custom()) == 123
    assert wire_size(object()) == 64


def test_communicator_needs_ranks():
    m = machine()
    with pytest.raises(MPIError):
        Communicator(m.kernel, m, 0)
