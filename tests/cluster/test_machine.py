"""Unit tests for machine assembly and rank placement."""

import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import ConfigError
from repro.sim import Kernel


def build(nodes=3, cores=4):
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores))


def test_machine_wiring():
    m = build()
    assert len(m.nodes) == 3
    assert m.fs.network is m.network
    assert m.topology.nodes == 3


def test_block_placement_even():
    m = build(nodes=3)
    nodes = [m.node_of_rank(r, 6) for r in range(6)]
    assert nodes == [0, 0, 1, 1, 2, 2]


def test_block_placement_uneven():
    m = build(nodes=3)
    nodes = [m.node_of_rank(r, 7) for r in range(7)]
    # 7 ranks over 3 nodes: 3, 2, 2
    assert nodes == [0, 0, 0, 1, 1, 2, 2]
    assert m.ranks_on_node(0, 7) == [0, 1, 2]
    assert m.ranks_on_node(2, 7) == [5, 6]


def test_placement_covers_all_ranks_exactly_once():
    cores = 4
    for nodes in range(1, 9):
        m = build(nodes=nodes, cores=cores)
        for nprocs in range(1, nodes * cores + 1):
            seen = []
            for node in range(nodes):
                got = m.ranks_on_node(node, nprocs)
                # The node_of_rank scan is the oracle for the closed form.
                assert got == [r for r in range(nprocs)
                               if m.node_of_rank(r, nprocs) == node]
                seen.extend(got)
            assert sorted(seen) == list(range(nprocs))
            # Fewer ranks than nodes leaves the trailing nodes empty.
            empty = [n for n in range(nodes) if not m.ranks_on_node(n, nprocs)]
            assert empty == list(range(min(nprocs, nodes), nodes))
            assert m.ranks_on_node(-1, nprocs) == []
            assert m.ranks_on_node(nodes, nprocs) == []


def test_fewer_ranks_than_nodes():
    m = build(nodes=3)
    assert m.node_of_rank(0, 2) == 0
    assert m.node_of_rank(1, 2) == 1


def test_rank_out_of_range():
    m = build()
    with pytest.raises(ConfigError):
        m.node_of_rank(6, 6)


def test_validate_job_limits():
    m = build(nodes=2, cores=2)
    m.validate_job(4)
    with pytest.raises(ConfigError, match="exceed 4 cores"):
        m.validate_job(5)
    with pytest.raises(ConfigError):
        m.validate_job(0)
