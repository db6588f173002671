"""Stress/property tests for message-ordering guarantees under load."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.mpi import mpi_run
from repro.sim import Kernel


def run(nprocs, main, nodes=2, cores=8):
    m = Machine(Kernel(), small_test_machine(nodes=nodes,
                                             cores_per_node=cores))
    return mpi_run(m, nprocs, main)


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(0, 50_000), min_size=1, max_size=12))
def test_non_overtaking_random_sizes(sizes):
    """A burst of isends of wildly different sizes between one pair is
    received in send order (MPI non-overtaking), even though larger
    messages take longer on the wire."""
    def main(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.isend(np.full(n, i, dtype=np.uint8), 1, tag=7)
                    for i, n in enumerate(sizes)]
            for r in reqs:
                yield r.event
            return None
        order = []
        for _ in sizes:
            data = yield from ctx.comm.recv(0, tag=7)
            order.append(int(data[0]) if data.size else -1)
        # Sequence must be ascending in send index (empty payloads
        # carry no marker; they may appear as -1 anywhere consistent
        # with order of the non-empty ones).
        marked = [x for x in order if x >= 0]
        assert marked == sorted(marked)
        return None

    run(2, main)


def test_many_pairs_no_cross_talk():
    """All-pairs random-size bursts: every (src, dst, tag) stream stays
    internally ordered and no payload leaks across streams."""
    P = 6

    def main(ctx):
        reqs = []
        for dst in range(P):
            if dst == ctx.rank:
                continue
            for k in range(4):
                payload = (ctx.rank, dst, k,
                           np.zeros(37 * ((ctx.rank + k) % 5),
                                    dtype=np.uint8))
                reqs.append(ctx.comm.isend(payload, dst, tag=3))
        seen = {}
        for peer in range(P):
            if peer == ctx.rank:
                continue
            for _ in range(4):
                src, dst, k, _buf = yield from ctx.comm.recv(peer, tag=3)
                assert (src, dst) == (peer, ctx.rank)
                assert seen.get(src, -1) == k - 1  # in-order per source
                seen[src] = k
        for r in reqs:
            yield r.event
        return seen

    res = run(P, main)
    for r, seen in enumerate(res):
        assert set(seen) == set(range(P)) - {r}
        assert all(v == 3 for v in seen.values())


def test_concurrent_tag_streams_match_only_their_tag():
    """Receives for two tags of one source, posted concurrently from two
    sub-processes, each match only their own tag's messages."""
    def main(ctx):
        if ctx.rank == 0:
            for i in range(6):
                yield from ctx.comm.send(("special", i) if i % 2 else ("any", i),
                                         1, tag=9 if i % 2 else 1)
            return None

        got_special = []
        got_any = []

        def special(ctx):
            for _ in range(3):
                tag_val = yield from ctx.comm.recv(0, tag=9)
                got_special.append(tag_val)
            return None

        def anything(ctx):
            for _ in range(3):
                v = yield from ctx.comm.recv(0, tag=1)
                got_any.append(v)
            return None

        p1 = ctx.kernel.process(special(ctx))
        p2 = ctx.kernel.process(anything(ctx))
        yield ctx.kernel.all_of([p1, p2])
        return (got_special, got_any)

    res = run(2, main)
    special, anything = res[1]
    assert [s[0] for s in special] == ["special"] * 3
    assert [a[0] for a in anything] == ["any"] * 3


def test_network_byte_conservation():
    """Every payload byte sent shows up in the network accounting."""
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4))
    sizes = [100, 2048, 0, 77777]

    def main(ctx):
        if ctx.rank == 0:
            for n in sizes:
                yield from ctx.comm.send(np.zeros(n, np.uint8), 1, tag=1)
        else:
            for _ in sizes:
                yield from ctx.comm.recv(0, tag=1)
        return None

    mpi_run(m, 2, main)
    moved = m.network.inter_node_bytes + m.network.intra_node_bytes
    assert moved == sum(sizes)
