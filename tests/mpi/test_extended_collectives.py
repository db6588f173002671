"""Tests for communicator splitting."""

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.mpi import SUM, collectives, mpi_run
from repro.sim import Kernel


def run(nprocs, main, nodes=2, cores=8):
    m = Machine(Kernel(), small_test_machine(nodes=nodes,
                                             cores_per_node=cores))
    return mpi_run(m, nprocs, main)


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
