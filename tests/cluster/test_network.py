"""Unit tests for the network model (transfers, NIC contention), and the
background transfer against the process-per-message send it replaced."""

import random

import pytest

from repro.cluster import Machine
from repro.config import CostModel, small_test_machine
from repro.faults import FaultInjector, FaultPlan
from repro.mpi import Communicator
from repro.mpi.comm import Message
from repro.sim import Kernel


def make_machine(**cost_kw):
    spec = small_test_machine(nodes=3, cores_per_node=2,
                              cost=CostModel(**cost_kw))
    k = Kernel()
    return k, Machine(k, spec)


def test_transfer_time_alpha_beta():
    k, m = make_machine(net_latency=1e-6, hop_latency=0.0, link_bandwidth=1e9)
    m.network.start_transfer(0, 1, 10**9, lambda: None)
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_intra_node_transfer_uses_shm_cost():
    k, m = make_machine(intra_node_latency=1e-6, intra_node_bandwidth=1e10)
    m.network.start_transfer(2, 2, 10**10, lambda: None)
    k.run()
    assert k.now == pytest.approx(1.0 + 1e-6)


def test_nic_serializes_concurrent_sends_from_one_node():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    for dst in (1, 2):  # 1 second each
        m.network.start_transfer(0, dst, 10**6,
                                 lambda dst=dst: done.append((dst, k.now)))
    k.run()
    # Same source NIC: strictly serialized.
    assert done == [(1, 1.0), (2, 2.0)]


def test_different_sources_to_different_dests_run_parallel():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    # Disjoint NICs (0.out, 1.in) vs (2.out, 0.in).
    for src, dst in ((0, 1), (2, 0)):
        m.network.start_transfer(src, dst, 10**6,
                                 lambda: done.append(k.now))
    k.run()
    assert done == [1.0, 1.0]


def test_receiver_nic_serializes_fan_in():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []
    for src in (0, 1):
        m.network.start_transfer(src, 2, 10**6, lambda: done.append(k.now))
    k.run()
    assert done == [1.0, 2.0]


def test_inject_charges_inbound_nic():
    k, m = make_machine(net_latency=0.0, hop_latency=0.0, link_bandwidth=1e6)
    done = []

    def io_arrival():
        yield from m.network.inject(1, 10**6)
        done.append(("io", k.now))

    k.process(io_arrival())
    m.network.start_transfer(0, 1, 10**6,
                             lambda: done.append(("msg", k.now)))
    k.run()
    # Both need node 1's inbound NIC: serialized (io first, FIFO).
    assert done == [("io", 1.0), ("msg", 2.0)]


def test_traffic_accounting():
    k, m = make_machine()
    for src, dst, nbytes in ((0, 1, 100), (0, 1, 50), (1, 1, 25)):
        m.network.start_transfer(src, dst, nbytes, lambda: None)
    k.run()
    assert m.network.inter_node_bytes == 150
    assert m.network.intra_node_bytes == 25


def test_negative_size_rejected():
    k, m = make_machine()
    with pytest.raises(ValueError):
        m.network.start_transfer(0, 1, -1, lambda: None)


# -- the background send against the send process it replaced -------------

def _hold_in_order(k, resources, duration):
    """The tuple form ``hold`` had: one slot of each resource in order,
    on the spot until the first wait and through grant events after it,
    all kept to the common end and released in reverse order."""
    waited = False
    for res in resources:
        if waited or not res._acquire(1):
            waited = True
            yield res.request()
    yield k.timeout(duration)
    for res in reversed(resources):
        res.release()


def _send_proc(comm, msg, seq):
    """The process body every message used to run: the transfer, the
    fault plan's delay, then pair sequencing and delivery."""
    net = comm.machine.network
    src, dst = comm.node_of(msg.source), comm.node_of(msg.dest)
    if src == dst:
        net.intra_node_bytes += msg.nbytes
        yield comm.kernel.timeout(net.cost.intra_node_msg_time(msg.nbytes))
    else:
        net.inter_node_bytes += msg.nbytes
        yield from _hold_in_order(
            comm.kernel, (net.nodes[src].nic_out, net.nodes[dst].nic_in),
            net.cost.msg_time(msg.nbytes, net.topology.hops(src, dst)))
    dropped = False
    faults = comm.machine.faults
    if faults is not None:
        dropped, delay = faults.message_decision(msg)
        if delay > 0:
            yield comm.kernel.timeout(delay)
    comm._sequence(msg, seq, dropped)


def _process_isend(handle, data, dest, tag, nbytes):
    comm = handle.comm
    pair = (handle.rank, dest)
    seq = comm._pair_next_out.get(pair, 0)
    comm._pair_next_out[pair] = seq + 1
    msg = Message(handle.rank, dest, tag, data, nbytes)
    return comm.kernel.process(_send_proc(comm, msg, seq), name="send")


def _run_sends(seed, background, faulted):
    """Seeded sends among 6 ranks on 3 nodes (two per node), on a
    quarter-second grid so that many events share an instant, plus file
    traffic on inbound NICs and a sender woken in the instant an
    outbound NIC is released.  Returns the log of send completions,
    receipts, inject ends and wakes, the event count and the end time."""
    rng = random.Random(seed)
    k, m = make_machine(net_latency=0.0, hop_latency=0.25,
                        link_bandwidth=4.0, intra_node_latency=0.0,
                        intra_node_bandwidth=8.0)
    if faulted:
        FaultInjector.attach(m, FaultPlan(seed=seed, msg_delay_rate=0.3,
                                          msg_delay_seconds=0.25))
    comm = Communicator(k, m, 6)
    handles = [comm.handle(r) for r in range(6)]
    log = []

    def send(msg_id, src, dst, tag, nbytes):
        if background:
            event = handles[src].isend(msg_id, dst, tag, nbytes).event
        else:
            event = _process_isend(handles[src], msg_id, dst, tag, nbytes)
        yield event
        log.append(("sent", msg_id, k.now))

    def sender(msg_id, at, src, dst, tag, nbytes):
        yield k.timeout(at)
        yield from send(msg_id, src, dst, tag, nbytes)

    def receiver(dst, src, tag):
        msg_id = yield from handles[dst].recv(src, tag)
        log.append(("recv", msg_id, k.now))

    def file_traffic(j, at, node, nbytes):
        yield k.timeout(at)
        yield from m.network.inject(node, nbytes)
        log.append(("inject", j, k.now))

    def nic_holder(at, node, woken):
        yield k.timeout(at)
        yield from m.network.eject(node, 1)
        woken.succeed()

    def woken_sender(msg_id, woken, src, dst, tag, nbytes):
        yield woken
        log.append(("woken", msg_id, k.now))
        yield from send(msg_id, src, dst, tag, nbytes)

    sends = []
    for msg_id in range(rng.randint(8, 24)):
        src, dst = rng.sample(range(6), 2)
        sends.append((msg_id, rng.randint(0, 8) * 0.25, src, dst,
                      rng.randrange(2), rng.randint(0, 4)))
    for msg_id, at, src, dst, tag, nbytes in sends:
        k.process(receiver(dst, src, tag))
        k.process(sender(msg_id, at, src, dst, tag, nbytes))
    for j in range(rng.randint(1, 3)):
        k.process(file_traffic(j, rng.randint(0, 8) * 0.25,
                               rng.randrange(3), rng.randint(1, 4)))
    for msg_id in range(len(sends), len(sends) + rng.randint(1, 3)):
        woken = k.event()
        src, dst = rng.sample(range(6), 2)
        k.process(nic_holder(rng.randint(0, 8) * 0.25, src // 2, woken))
        k.process(receiver(dst, src, 2))
        k.process(woken_sender(msg_id, woken, src, dst, 2,
                               rng.randint(0, 4)))
    k.run()
    assert all(not table for table in comm._posted + comm._unexpected)
    return log, k._seq, k.now


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "delays"])
@pytest.mark.parametrize("seed", range(12))
def test_background_send_matches_the_send_process(seed, faulted):
    """Send completions, receipts and their order, file traffic on the
    same NICs, the same-instant wakes, the number of scheduled events
    and the end time all equal the process-per-message oracle's."""
    oracle = _run_sends(seed, False, faulted)
    assert _run_sends(seed, True, faulted) == oracle
    assert any(entry[0] == "recv" for entry in oracle[0])
