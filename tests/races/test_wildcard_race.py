"""Message-race detection through the MPI layer.

The acceptance scenario of the race detector: a wildcard receive that
two concurrently-enabled sends could satisfy is reported with both
send events, their vector clocks, and the racing receive; the same
exchange with explicit sources is clean; and a non-commutative
reduction downstream of the race is flagged as order-dependent.
"""

import pytest

from repro.check.races import drain_findings
from repro.cluster import Machine
from repro.config import small_test_machine
from repro.flags import override
from repro.mpi import ANY_SOURCE, mpi_run
from repro.mpi import collectives as coll
from repro.mpi.op import Op
from repro.sim import Kernel

NPROCS = 3


@pytest.fixture(autouse=True)
def _clean_registry():
    drain_findings()
    yield
    drain_findings()


def _machine() -> Machine:
    with override(races=True):
        return Machine(Kernel(), small_test_machine(nodes=1,
                                                    cores_per_node=4))


def _run(body):
    machine = _machine()
    with override(races=True):
        results = mpi_run(machine, NPROCS, body)
    return results, drain_findings()


def test_planted_wildcard_race_is_reported():
    def body(ctx):
        if ctx.rank == 0:
            a = yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            b = yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            return (a, b)
        yield from ctx.comm.send(f"from{ctx.rank}", 0, tag=7)

    results, findings = _run(body)
    assert sorted(results[0]) == ["from1", "from2"]
    assert [f.kind for f in findings] == ["wildcard-recv"]
    msg = findings[0].message
    # The report names the racing receive, both sends, and their clocks.
    assert "recv(source=ANY_SOURCE, tag=7)" in msg
    assert "send #0" in msg and "send #1" in msg
    assert "rank 0" in msg
    assert msg.count("vc={") == 2
    assert "1->0" in msg and "2->0" in msg


def test_explicit_sources_are_clean():
    """MPI's non-overtaking rule plus explicit sources fix the match
    order: the identical exchange without wildcards carries no race."""
    def body(ctx):
        if ctx.rank == 0:
            a = yield from ctx.comm.recv(1, tag=7)
            b = yield from ctx.comm.recv(2, tag=7)
            return (a, b)
        yield from ctx.comm.send(f"from{ctx.rank}", 0, tag=7)

    results, findings = _run(body)
    assert results[0] == ("from1", "from2")
    assert findings == []


def test_ordered_wildcard_recv_is_clean():
    """A wildcard receive whose candidate sends are happens-before
    ordered (second send released only after the first was received) is
    not a race."""
    def body(ctx):
        if ctx.rank == 0:
            a = yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            yield from ctx.comm.send("go", 2, tag=8)
            b = yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            return (a, b)
        if ctx.rank == 1:
            yield from ctx.comm.send("from1", 0, tag=7)
        else:
            yield from ctx.comm.recv(0, tag=8)
            yield from ctx.comm.send("from2", 0, tag=7)

    results, findings = _run(body)
    assert results[0] == ("from1", "from2")
    assert findings == []


def test_noncommutative_reduce_on_tainted_rank_is_flagged():
    concat = Op.create(lambda a, b: a + b, commutative=False, name="concat")

    def body(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            yield from ctx.comm.recv(ANY_SOURCE, tag=7)
        else:
            yield from ctx.comm.send(ctx.rank, 0, tag=7)
        out = yield from coll.reduce(ctx.comm, [ctx.rank], concat, root=0)
        return out

    results, findings = _run(body)
    assert results[0] is not None
    kinds = [f.kind for f in findings]
    assert "wildcard-recv" in kinds
    assert "reduce-order" in kinds
    (order,) = [f for f in findings if f.kind == "reduce-order"]
    assert "'concat'" in order.message
    assert "rank 0" in order.message


def test_commutative_reduce_on_tainted_rank_is_not_flagged():
    from repro.mpi.op import SUM

    def body(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.recv(ANY_SOURCE, tag=7)
            yield from ctx.comm.recv(ANY_SOURCE, tag=7)
        else:
            yield from ctx.comm.send(ctx.rank, 0, tag=7)
        out = yield from coll.reduce(ctx.comm, ctx.rank, SUM, root=0)
        return out

    _results, findings = _run(body)
    kinds = {f.kind for f in findings}
    assert "reduce-order" not in kinds  # SUM commutes: order-independent
    assert "wildcard-recv" in kinds     # but the message race remains
