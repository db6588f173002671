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
    slowdown:
        Multiplier applied to this node's compute durations; >1 makes the
        node a straggler (used by failure-injection tests).
    """

    def __init__(self, kernel: Kernel, index: int, cores: int,
                 slowdown: float = 1.0) -> None:
        self.kernel = kernel
        self.index = index
        self.n_cores = cores
        self.slowdown = float(slowdown)
        self.cores = Resource(kernel, capacity=cores, name=f"node{index}.cores")
        self.nic_out = Resource(kernel, capacity=1, name=f"node{index}.nic_out")
        self.nic_in = Resource(kernel, capacity=1, name=f"node{index}.nic_in")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.index} cores={self.n_cores}>"
