"""Network model: point-to-point transfers with NIC serialization.

A transfer between two nodes charges the alpha/beta cost from the
:class:`~repro.config.CostModel` *while holding* the sender's outbound
NIC and the receiver's inbound NIC, so concurrent messages through the
same endpoint serialize (store-and-forward at the endpoints).  Intra-node
transfers bypass the NICs and use the shared-memory cost instead.  A
message is a background occupancy (:func:`repro.sim.occupy`), not a
process; file traffic (:meth:`Network.inject`/:meth:`Network.eject`)
is held inline by the reading or writing process.

The deadlock-freedom argument for holding two resources: a transfer
acquires ``src.nic_out`` before ``dst.nic_in``; since the ``nic_out`` and
``nic_in`` pools are disjoint, no cycle of waits can form between
transfers (an out-holder waits only on in-slots, never on out-slots).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Tuple

from ..config import CostModel
from ..sim import Kernel, Resource, hold, occupy
from .node import Node
from .topology import MeshTopology


class Network:
    """The machine interconnect.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    nodes:
        Node list, indexed by node id.
    topology:
        Hop-count provider.
    cost:
        The platform cost model.
    """

    def __init__(self, kernel: Kernel, nodes: List[Node],
                 topology: MeshTopology, cost: CostModel) -> None:
        self.kernel = kernel
        self.nodes = nodes
        self.topology = topology
        self.cost = cost
        #: Total bytes moved across node boundaries.
        self.inter_node_bytes = 0
        #: Total bytes moved within nodes (shared memory).
        self.intra_node_bytes = 0
        #: ``(src, dst)`` node pair -> (the NICs its messages hold, hop
        #: count), filled on a pair's first message.
        self._routes: Dict[Tuple[int, int],
                           Tuple[Tuple[Resource, Resource], int]] = {}

    def start_transfer(self, src: int, dst: int, nbytes: int,
                       then: Callable[[], None]) -> None:
        """Move one message of ``nbytes`` from node ``src`` to node
        ``dst`` in the background, then call ``then()``.

        An inter-node message holds ``src.nic_out`` and then
        ``dst.nic_in`` for its alpha/beta time (keeping the first while
        it queues for the second); an intra-node one pays the
        shared-memory cost without a NIC.  See
        :func:`repro.sim.occupy` for the events it schedules.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            self.intra_node_bytes += nbytes
            occupy(self.kernel, (), self.cost.intra_node_msg_time(nbytes),
                   then)
            return
        self.inter_node_bytes += nbytes
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = (
                (self.nodes[src].nic_out, self.nodes[dst].nic_in),
                self.topology.hops(src, dst))
        nics, hops = route
        occupy(self.kernel, nics, self.cost.msg_time(nbytes, hops), then)

    def inject(self, dst: int, nbytes: int) -> Generator:
        """Sub-process: storage-to-compute traffic arriving at ``dst``.

        On the paper's testbed the Lustre data path (LNET) shares the
        Gemini interconnect with MPI traffic, so file reads occupy the
        client node's inbound NIC and genuinely contend with the shuffle
        phase — the contention collective computing sidesteps.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.inter_node_bytes += nbytes
        yield from hold(self.nodes[dst].nic_in,
                        self.cost.msg_time(nbytes, hops=1))

    def eject(self, src: int, nbytes: int) -> Generator:
        """Sub-process: compute-to-storage traffic leaving ``src``
        (writes); occupies the outbound NIC."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.inter_node_bytes += nbytes
        yield from hold(self.nodes[src].nic_out,
                        self.cost.msg_time(nbytes, hops=1))
