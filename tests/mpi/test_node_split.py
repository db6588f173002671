"""Unit tests for node-aware sub-communicators: the membership-keyed
subcomm registry (growth regression), ``node_groups``/``node_leader``,
and the leader/member structure :meth:`CommHandle.node_split` builds."""

import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import MPIError
from repro.mpi import mpi_run
from repro.sim import Kernel


def machine(nodes=2, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


def run(nprocs, main, nodes=2, cores=4):
    m = machine(nodes, cores)
    return m, mpi_run(m, nprocs, main)


def test_node_groups_and_leader_match_placement():
    def main(ctx):
        yield ctx.kernel.timeout(0)
        return ctx.comm.comm.node_groups()

    _, res = run(8, main, nodes=3, cores=4)
    groups = res[0]
    # Balanced placement of 8 ranks on 3 nodes: 3/3/2, consecutive.
    assert groups == {0: [0, 1, 2], 1: [3, 4, 5], 2: [6, 7]}
    for r in range(1, 8):  # same dict every rank
        assert res[r] == groups

    def leaders(ctx):
        yield ctx.kernel.timeout(0)
        return [ctx.comm.comm.node_leader(n) for n in sorted(
            ctx.comm.comm.node_groups())]

    _, res = run(8, leaders, nodes=3, cores=4)
    assert res[0] == [0, 3, 6]


def test_split_registry_reuses_identical_groups():
    """Growth regression: splitting by the same color every iteration
    must not grow the subcomm registry past the distinct groups."""
    def main(ctx):
        for _ in range(10):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            assert sub is not None
        return len(ctx.comm.comm._subcomms)

    _, res = run(4, main)
    # Two distinct groups (even ranks, odd ranks), ten rounds of splits.
    assert res[0] == 2


def test_split_reuse_preserves_subrank_and_results():
    """Reused subcomms hand out fresh handles whose collectives still
    work (tag sequences restart identically on every member)."""
    from repro.mpi import collectives as coll

    def main(ctx):
        totals = []
        for _ in range(3):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            vals = yield from coll.allgather(sub, ctx.rank)
            totals.append(tuple(vals))
        return totals

    _, res = run(4, main)
    assert res[0] == [(0, 2)] * 3
    assert res[1] == [(1, 3)] * 3


def test_split_subcomm_node_map_matches_world():
    """Derived communicators carry the nodes their members actually
    live on, not a re-derived block placement."""
    def main(ctx):
        # Group world ranks 1 and 5: they live on nodes 0 and 1 but a
        # naive 2-rank block placement would put both on node 0.
        color = 0 if ctx.rank in (1, 5) else None
        sub = yield from ctx.comm.split(color)
        if sub is None:
            return None
        return [sub.comm.node_of(r) for r in range(sub.size)]

    _, res = run(8, main)
    assert res[1] == [0, 1]
    assert res[5] == [0, 1]
    assert res[0] is None


@pytest.mark.parametrize("above", [False, True])
def test_node_of_out_of_range_is_mpierror_on_every_comm(above):
    """World and split communicators reject an out-of-range rank with
    the same error type (the world one used to raise ConfigError)."""
    def main(ctx):
        sub = yield from ctx.comm.split(ctx.rank % 2)
        last_nodes = []
        for comm in (ctx.comm.comm, sub.comm):
            with pytest.raises(MPIError, match="outside"):
                comm.node_of(comm.nprocs if above else -1)
            last_nodes.append(comm.node_of(comm.nprocs - 1))
        return last_nodes

    _, res = run(8, main)
    # In range, node_of stays the placement lookup: world rank 7 and both
    # subcomms' last members (world ranks 6 and 7) live on node 1.
    assert res == [[1, 1]] * 8


def test_node_split_structure():
    def main(ctx):
        ns = yield from ctx.comm.node_split()
        return dict(
            leader=ns.leader,
            node_ranks=list(ns.node_ranks),
            node_index=ns.node_index,
            is_leader=ns.is_leader,
            node_rank=ns.node_comm.rank,
            node_size=ns.node_comm.size,
            leader_size=None if ns.leader_comm is None
            else ns.leader_comm.size,
        )

    _, res = run(8, main)
    for r, view in enumerate(res):
        node = 0 if r < 4 else 1
        assert view["node_index"] == node
        assert view["node_ranks"] == ([0, 1, 2, 3] if node == 0
                                      else [4, 5, 6, 7])
        assert view["leader"] == (0 if node == 0 else 4)
        assert view["is_leader"] == (r in (0, 4))
        # Intra-node comm ordered by world rank: leader at subrank 0.
        assert view["node_rank"] == r % 4
        assert view["node_size"] == 4
        assert view["leader_size"] == (2 if r in (0, 4) else None)


def test_node_split_cached_per_handle():
    def main(ctx):
        first = yield from ctx.comm.node_split()
        second = yield from ctx.comm.node_split()
        assert first is second
        return len(ctx.comm.comm._subcomms)

    _, res = run(4, main)
    # One intra-node group per node plus the leaders-only group.
    assert res[0] == 3
