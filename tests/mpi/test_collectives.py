"""Unit + property tests for collective operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import RunList
from repro.errors import MPIError
from repro.flags import override
from repro.mpi import Op, SUM, collectives, mpi_run, wire_size
from repro.mpi.wire import CONTAINER_OVERHEAD
from repro.obs import metrics
from repro.sim import Kernel


def run(nprocs, main, nodes=2, cores=8):
    m = Machine(Kernel(), small_test_machine(nodes=nodes,
                                             cores_per_node=cores))
    return mpi_run(m, nprocs, main)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("root", [0, -1])  # -1 = last rank
def test_bcast_all_sizes_roots(nprocs, root):
    root = root if root >= 0 else nprocs - 1

    def main(ctx):
        data = f"payload-{root}" if ctx.rank == root else None
        out = yield from collectives.bcast(ctx.comm, data, root=root)
        return out

    res = run(nprocs, main)
    assert res == [f"payload-{root}"] * nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
def test_reduce_sum(nprocs):
    def main(ctx):
        out = yield from collectives.reduce(ctx.comm, ctx.rank + 1, SUM,
                                            root=0)
        return out

    res = run(nprocs, main)
    assert res[0] == nprocs * (nprocs + 1) // 2
    assert all(r is None for r in res[1:])


def test_reduce_nonzero_root():
    def main(ctx):
        return (yield from collectives.reduce(ctx.comm, 2 ** ctx.rank, SUM,
                                              root=2))

    res = run(5, main)
    assert res[2] == 2 ** 5 - 1
    assert res[0] is None


@pytest.mark.parametrize("op,expect", [(SUM, 0 + 1 + 2 + 3 + 4 + 5)])
def test_allreduce_builtin_ops(op, expect):
    def main(ctx):
        return (yield from collectives.allreduce(ctx.comm, ctx.rank, op))

    res = run(6, main)
    assert res == [expect] * 6


def test_allreduce_numpy_arrays():
    def main(ctx):
        v = np.full(4, float(ctx.rank))
        return (yield from collectives.allreduce(ctx.comm, v, SUM))

    res = run(4, main)
    for arr in res:
        assert np.array_equal(arr, np.full(4, 6.0))


@pytest.mark.parametrize("nprocs", [1, 3, 6])
def test_gather(nprocs):
    def main(ctx):
        return (yield from collectives.gather(ctx.comm, ctx.rank * 2, root=0))

    res = run(nprocs, main)
    assert res[0] == [r * 2 for r in range(nprocs)]
    for r in range(1, nprocs):
        assert res[r] is None


@pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
def test_allgather(nprocs):
    def main(ctx):
        return (yield from collectives.allgather(ctx.comm, ctx.rank ** 2))

    res = run(nprocs, main)
    expect = [r ** 2 for r in range(nprocs)]
    assert res == [expect] * nprocs


def _mixed_value(rank):
    """Per-rank allgather payloads of different wire sizes: ints,
    rank-length arrays, run lists and nested tuples."""
    kind = rank % 4
    if kind == 0:
        return rank
    if kind == 1:
        return np.arange(rank + 1, dtype=np.float64)
    if kind == 2:
        return RunList.from_pairs([(64 * i, 8 + rank) for i in range(rank)])
    return (rank, ("x" * rank, np.zeros(rank, dtype=np.int32)), [1.5] * rank)


def _bruck_bytes(values):
    """Bytes a Bruck allgather of ``values`` puts on the wire, measured
    in full: per round, every rank sends the dict it has collected so
    far, charged ``CONTAINER_OVERHEAD + sum(8 + wire_size(v))``."""
    size = len(values)
    held = [{r: values[r]} for r in range(size)]
    total = 0
    step = 1
    while step < size:
        sent = [dict(h) for h in held]
        for r in range(size):
            total += CONTAINER_OVERHEAD + sum(
                8 + wire_size(v) for v in sent[r].values())
        for r in range(size):
            held[r].update(sent[(r + step) % size])
        step <<= 1
    return total


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 7, 8, 12, 13])
def test_allgather_accounting_measures_each_value_once(nprocs, monkeypatch):
    """The allgather sizes its rounds from the received envelopes: the
    bytes charged equal the per-round dict measurement, while each rank
    runs ``wire_size`` on its own value only."""
    calls = []

    def counting_wire_size(obj):
        calls.append(obj)
        return wire_size(obj)

    monkeypatch.setattr(collectives, "wire_size", counting_wire_size)

    def main(ctx):
        mine = _mixed_value(ctx.rank)
        out = yield from collectives.allgather(ctx.comm, mine)
        return out, mine

    with override(obs=True):
        res = run(nprocs, main)
        wire_bytes = metrics.current().counters.get("mpi.wire_bytes", 0)
    values = [mine for _out, mine in res]
    for out, _mine in res:
        # Rank-ordered, and every entry is the contributing rank's object.
        assert len(out) == nprocs
        assert all(got is want for got, want in zip(out, values))
    assert wire_bytes == _bruck_bytes(values)
    assert len(calls) == nprocs


@pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
def test_alltoall_varying_sizes(nprocs):
    def main(ctx):
        payloads = [np.full(dst + 1, ctx.rank, dtype=np.int64)
                    for dst in range(ctx.size)]
        out = yield from collectives.alltoall(ctx.comm, payloads)
        return out

    res = run(nprocs, main)
    for r, out in enumerate(res):
        for src in range(nprocs):
            assert out[src].shape == (r + 1,)
            assert (out[src] == src).all()


def test_alltoall_wrong_length_rejected():
    def main(ctx):
        with pytest.raises(MPIError):
            yield from collectives.alltoall(ctx.comm, [1])
        yield ctx.kernel.timeout(0)
        return None

    run(2, main)


def test_barrier_synchronizes():
    def main(ctx):
        yield ctx.kernel.timeout(float(ctx.rank))  # staggered arrival
        yield from collectives.barrier(ctx.comm)
        return ctx.kernel.now

    res = run(4, main)
    # Nobody leaves before the last arrival at t=3.
    assert all(t >= 3.0 for t in res)


def test_back_to_back_collectives_do_not_cross_match():
    def main(ctx):
        a = yield from collectives.allreduce(ctx.comm, 1, SUM)
        b = yield from collectives.allreduce(ctx.comm, 10, SUM)
        c = yield from collectives.allgather(ctx.comm, ctx.rank)
        return (a, b, c)

    res = run(4, main)
    assert all(r == (4, 40, [0, 1, 2, 3]) for r in res)


def test_noncommutative_user_op_ordered():
    """String concatenation reduced over ranks must come out in rank
    order on the binomial tree."""
    concat = Op.create(lambda a, b: a + b, name="concat")

    def main(ctx):
        return (yield from collectives.reduce(ctx.comm, chr(ord("a") + ctx.rank),
                                              concat, root=0))

    res = run(6, main)
    assert res[0] == "abcdef"


def test_op_create_validation():
    with pytest.raises(MPIError):
        Op.create("not callable")


@settings(max_examples=20, deadline=None)
@given(nprocs=st.integers(1, 9), root=st.integers(0, 8),
       seed=st.integers(0, 2**31 - 1))
def test_reduce_matches_numpy_reference(nprocs, root, seed):
    root = root % nprocs
    rng = np.random.default_rng(seed)
    values = rng.integers(-100, 100, size=nprocs).tolist()

    def main(ctx):
        return (yield from collectives.reduce(ctx.comm, values[ctx.rank],
                                              SUM, root=root))

    res = run(nprocs, main)
    assert res[root] == sum(values)
