"""Unit tests for the network model (transfers, NIC contention)."""

import pytest

from repro.cluster import Machine
from repro.config import CostModel, small_test_machine
from repro.sim import Kernel


def make_machine(**cost_kw):
    spec = small_test_machine(nodes=3, cores_per_node=2,
                              cost=CostModel(**cost_kw))
    k = Kernel()
    return k, Machine(k, spec)


def test_transfer_time_alpha_beta():
    k, m = make_machine(net_latency=1e-6, hop_latency=0.0, link_bandwidth=1e9)

    def body():
        yield from m.network.transfer(0, 1, 10**9)

    k.process(body())
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_intra_node_transfer_uses_shm_cost():
    k, m = make_machine(intra_node_latency=1e-6, intra_node_bandwidth=1e10)

    def body():
        yield from m.network.transfer(2, 2, 10**10)

    k.process(body())
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_nic_serializes_concurrent_sends_from_one_node():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)

    done = []

    def send(dst):
        yield from m.network.transfer(0, dst, 10**6)  # 1 second each
        done.append((dst, k.now))

    k.process(send(1))
    k.process(send(2))
    k.run()
    # Same source NIC: strictly serialized.
    assert done == [(1, 1.0), (2, 2.0)]


def test_different_sources_to_different_dests_run_parallel():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []

    def send(src, dst):
        yield from m.network.transfer(src, dst, 10**6)
        done.append(k.now)

    k.process(send(0, 1))
    k.process(send(2, 0))  # disjoint NICs (2.out, 0.in) vs (0.out, 1.in)
    k.run()
    assert done == [1.0, 1.0]


def test_receiver_nic_serializes_fan_in():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []

    def send(src):
        yield from m.network.transfer(src, 2, 10**6)
        done.append(k.now)

    k.process(send(0))
    k.process(send(1))
    k.run()
    assert done == [1.0, 2.0]


def test_inject_charges_inbound_nic():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []

    def io_arrival():
        yield from m.network.inject(1, 10**6)
        done.append(("io", k.now))

    def msg():
        yield from m.network.transfer(0, 1, 10**6)
        done.append(("msg", k.now))

    k.process(io_arrival())
    k.process(msg())
    k.run()
    # Both need node 1's inbound NIC: serialized (io first, FIFO).
    assert done == [("io", 1.0), ("msg", 2.0)]


def test_traffic_accounting():
    k, m = make_machine()

    def body():
        yield from m.network.transfer(0, 1, 100)
        yield from m.network.transfer(0, 1, 50)
        yield from m.network.transfer(1, 1, 25)

    k.process(body())
    k.run()
    assert m.network.inter_node_bytes == 150
    assert m.network.intra_node_bytes == 25


def test_negative_size_rejected():
    k, m = make_machine()
    with pytest.raises(ValueError):
        list(m.network.transfer(0, 1, -1))
