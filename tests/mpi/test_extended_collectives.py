"""Tests for scan/exscan/reduce_scatter, Bruck vs ring allgather, and
communicator splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import MPIError
from repro.mpi import SUM, Op, collectives, mpi_run
from repro.sim import Kernel


def run(nprocs, main, nodes=2, cores=8):
    m = Machine(Kernel(), small_test_machine(nodes=nodes,
                                             cores_per_node=cores))
    return mpi_run(m, nprocs, main)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
def test_scan_inclusive(nprocs):
    def main(ctx):
        return (yield from collectives.scan(ctx.comm, ctx.rank + 1, SUM))

    res = run(nprocs, main)
    assert res == [sum(range(1, r + 2)) for r in range(nprocs)]


@pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
def test_exscan_exclusive(nprocs):
    def main(ctx):
        return (yield from collectives.exscan(ctx.comm, ctx.rank + 1, SUM))

    res = run(nprocs, main)
    assert res[0] is None
    for r in range(1, nprocs):
        assert res[r] == sum(range(1, r + 1))


def test_scan_non_commutative_order():
    concat = Op.create(lambda a, b: a + b, commutative=False, name="concat")

    def main(ctx):
        return (yield from collectives.scan(ctx.comm,
                                            chr(ord("a") + ctx.rank), concat))

    res = run(6, main)
    assert res == ["a", "ab", "abc", "abcd", "abcde", "abcdef"]


@pytest.mark.parametrize("nprocs", [1, 3, 6])
def test_reduce_scatter_block(nprocs):
    def main(ctx):
        values = [10 * d + ctx.rank for d in range(ctx.size)]
        mine = yield from collectives.reduce_scatter_block(ctx.comm, values,
                                                           SUM)
        return mine

    res = run(nprocs, main)
    base = sum(range(nprocs))
    assert res == [10 * r * nprocs + base for r in range(nprocs)]


def test_reduce_scatter_wrong_length():
    def main(ctx):
        with pytest.raises(MPIError):
            yield from collectives.reduce_scatter_block(ctx.comm, [1, 2], SUM)
        yield ctx.kernel.timeout(0)
        return None

    run(1, main)


@settings(max_examples=15, deadline=None)
@given(nprocs=st.integers(1, 9))
def test_bruck_and_ring_allgather_agree(nprocs):
    def main(ctx):
        a = yield from collectives.allgather(ctx.comm, ctx.rank ** 2 + 1)
        b = yield from collectives.allgather_ring(ctx.comm, ctx.rank ** 2 + 1)
        return (a, b)

    res = run(nprocs, main)
    expect = [r ** 2 + 1 for r in range(nprocs)]
    for a, b in res:
        assert a == expect and b == expect


# -- communicator splitting ------------------------------------------------

def test_split_even_odd():
    def main(ctx):
        sub = yield from ctx.comm.split(color=ctx.rank % 2, key=ctx.rank)
        total = yield from collectives.allreduce(sub, ctx.rank, SUM)
        return (sub.size, sub.rank, total)

    res = run(8, main)
    evens = sum(r for r in range(8) if r % 2 == 0)
    odds = sum(r for r in range(8) if r % 2 == 1)
    for r in range(8):
        size, newrank, total = res[r]
        assert size == 4
        assert newrank == r // 2
        assert total == (evens if r % 2 == 0 else odds)


def test_split_key_reorders():
    def main(ctx):
        # Reverse order within one group.
        sub = yield from ctx.comm.split(color=0, key=-ctx.rank)
        return sub.rank

    res = run(4, main)
    assert res == [3, 2, 1, 0]


def test_split_undefined_color():
    def main(ctx):
        sub = yield from ctx.comm.split(
            color=None if ctx.rank == 0 else 1)
        if ctx.rank == 0:
            return sub  # None
        total = yield from collectives.allreduce(sub, 1, SUM)
        return total

    res = run(4, main)
    assert res[0] is None
    assert res[1:] == [3, 3, 3]


def test_split_preserves_node_placement():
    def main(ctx):
        # Last rank of each node forms a group.
        on_node = ctx.machine.ranks_on_node(ctx.node.index, ctx.size)
        color = 1 if ctx.rank == on_node[-1] else 0
        sub = yield from ctx.comm.split(color=color)
        # Message cost between sub ranks must reflect *original* nodes.
        return (color, sub.comm.node_of(sub.rank), ctx.node.index)

    res = run(8, main, nodes=2, cores=4)
    for color, mapped, actual in res:
        assert mapped == actual


def test_nested_splits():
    def main(ctx):
        half = yield from ctx.comm.split(color=ctx.rank // 4, key=ctx.rank)
        quarter = yield from half.split(color=half.rank // 2, key=half.rank)
        s = yield from collectives.allreduce(quarter, ctx.rank, SUM)
        return (quarter.size, s)

    res = run(8, main)
    for r in range(8):
        size, s = res[r]
        assert size == 2
        pair_base = (r // 2) * 2
        assert s == pair_base + pair_base + 1
