"""Edge cases of the nonblocking request machinery: cancellation
semantics (MPI_Cancel), repeated waits on one request, and a
nonblocking collective read overlapping computation."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import DatasetSpec, Subarray
from repro.errors import MPIError
from repro.io import AccessRequest, icollective_read, wait_and_unpack
from repro.mpi import mpi_run
from repro.pfs import linear_field
from repro.sim import Kernel


def machine(nodes=2, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


def build():
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=2, stripe_size=256))
    f = m.fs.create_procedural_file("f.bin", 1000, dtype=np.float64,
                                    func=linear_field(), stripe_size=256)
    return k, m, f


def test_cancel_pending_recv_completes_with_none():
    m = machine()

    def main(ctx):
        if ctx.rank != 0:
            return None
        req = ctx.comm.irecv(source=1, tag=3)  # nobody will send
        assert req.cancel() is True
        assert req.cancelled
        value = yield from req.wait()
        assert value is None
        assert req.cancel() is False  # second cancel raced and lost
        return "done"

    res = mpi_run(m, 2, main)
    assert res[0] == "done"


def test_cancelled_recv_releases_the_message_to_a_later_recv():
    """Cancelling must withdraw the posted receive: the in-flight
    message then lands in the unexpected queue for the next recv
    instead of completing the dead request."""
    m = machine()

    def main(ctx):
        if ctx.rank == 1:
            yield from ctx.comm.send("payload", dest=0, tag=4)
            return None
        victim = ctx.comm.irecv(source=1, tag=4)
        assert victim.cancel() is True
        data = yield from ctx.comm.recv(source=1, tag=4)
        dead = yield from victim.wait()
        return data, dead

    res = mpi_run(m, 2, main)
    assert res[0] == ("payload", None)


def test_cancel_after_match_returns_false():
    m = machine()

    def main(ctx):
        if ctx.rank == 1:
            yield from ctx.comm.send(42, dest=0, tag=8)
            return None
        # Let the message arrive first, so irecv matches instantly.
        yield ctx.kernel.timeout(10.0)
        req = ctx.comm.irecv(source=1, tag=8)
        assert req.cancel() is False
        assert not req.cancelled
        value = yield from req.wait()
        return value

    res = mpi_run(m, 2, main)
    assert res[0] == 42


def test_cancel_send_raises():
    m = machine()

    def main(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend("x", dest=1, tag=1)
            with pytest.raises(MPIError, match="only a pending receive"):
                req.cancel()
            yield req.event
            return None
        data = yield from ctx.comm.recv(source=0, tag=1)
        return data

    res = mpi_run(m, 2, main)
    assert res[1] == "x"


def test_double_wait_returns_the_same_payload():
    m = machine()

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send([1, 2, 3], dest=1, tag=6)
            return None
        req = ctx.comm.irecv(source=0, tag=6)
        first = yield from req.wait()
        second = yield from req.wait()  # waiting again is legal
        assert req.complete
        return first, second

    res = mpi_run(m, 2, main)
    assert res[1] == ([1, 2, 3], [1, 2, 3])


def test_icollective_read_request_is_not_cancellable():
    """A collective-I/O request has already consumed collective tags on
    every rank; cancelling one rank's handle must be refused."""
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=2, stripe_size=256))
    f = m.fs.create_procedural_file("f.bin", 256, dtype=np.float64,
                                    func=linear_field(), stripe_size=256)
    spec = DatasetSpec((256,), np.float64, name="f")

    def main(ctx):
        request = AccessRequest.from_subarray(
            spec, Subarray((64 * ctx.rank,), (64,)))
        req = icollective_read(ctx, f, request)
        with pytest.raises(MPIError, match="only a pending receive"):
            req.cancel()
        data = yield from wait_and_unpack(ctx, req, request)
        return float(data[0])

    res = mpi_run(m, 2, main)
    assert res == [0.0, 64.0]


def test_icollective_read_overlaps_compute():
    k, m, f = build()
    spec = DatasetSpec((10, 10), np.float64)
    sub = Subarray((0, 0), (10, 10))

    def main(ctx):
        req_desc = AccessRequest.from_subarray(spec, sub)
        handle = icollective_read(ctx, f, req_desc)
        # Overlap independent computation while the collective runs.
        yield from ctx.compute(1000)
        arr = yield from wait_and_unpack(ctx, handle, req_desc)
        return float(arr.sum())

    res = mpi_run(m, 2, main)
    assert res[0] == pytest.approx(np.arange(100, dtype=float).sum())
