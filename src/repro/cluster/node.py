"""Compute-node model: cores and network interfaces as FIFO resources.

A :class:`Node` contributes three contention points to the simulation:

* ``cores`` — a counted resource sized by ``cores_per_node``; any CPU
  work (map/compute, pack/unpack) holds one slot for its duration.
* ``nic_out`` / ``nic_in`` — capacity-1 resources serializing outbound
  and inbound network transfers, which is what makes the shuffle phase
  of collective I/O a genuine bottleneck at scale (messages into one
  aggregator queue at its inbound NIC exactly as on real hardware).
"""

from __future__ import annotations

from ..sim import Kernel, Resource


class Node:
    """One compute node of the simulated machine.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    index:
        Node id within the machine (0-based).
    cores:
        Number of CPU cores (concurrent compute slots).

    A straggling node is a fault, not a node property: a
    :class:`~repro.faults.FaultPlan` delays an overloaded aggregator's
    windows (``agg_straggle_*``) on the resilient path.
    """

    def __init__(self, kernel: Kernel, index: int, cores: int) -> None:
        self.kernel = kernel
        self.index = index
        self.n_cores = cores
        self.cores = Resource(kernel, capacity=cores, name=f"node{index}.cores")
        self.nic_out = Resource(kernel, capacity=1, name=f"node{index}.nic_out")
        self.nic_in = Resource(kernel, capacity=1, name=f"node{index}.nic_in")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.index} cores={self.n_cores}>"
