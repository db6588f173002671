"""Platform specification and the cost model.

Every simulated duration in the library is produced by one of the methods
on :class:`CostModel`, so an experiment's timing assumptions live in a
single auditable place.  :class:`PlatformSpec` describes a machine
(nodes, cores, network, file system) and bundles a cost model.

The default numbers are calibrated against the paper's testbed, NERSC
*Hopper* (Cray XE6): 24 cores/node at 2.1 GHz, Gemini mesh interconnect,
a Lustre file system with 156 OSTs and ~35 GB/s peak aggregate bandwidth
(so ~225 MB/s per OST).  Absolute values are not the point — the
reproduction targets the *shape* of the paper's results — but realistic
magnitudes keep the read/shuffle/compute balance honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from .errors import ConfigError

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

#: CostModel fields that are durations (seconds): finite and >= 0.
_LATENCY_FIELDS = ("net_latency", "hop_latency", "intra_node_latency",
                   "ost_seek")
#: CostModel fields that are rates (bytes or elements per second):
#: finite and > 0.
_RATE_FIELDS = ("link_bandwidth", "intra_node_bandwidth", "ost_bandwidth",
                "core_element_rate", "memcpy_bandwidth")


@dataclass(frozen=True)
class CostModel:
    """Tunable cost coefficients for the discrete-event simulation.

    All rates are bytes/second, latencies in seconds.  Methods return
    durations in simulated seconds.
    """

    #: Per-message software/injection latency (the alpha term).
    net_latency: float = 2.0e-6
    #: Additional latency per mesh hop travelled.
    hop_latency: float = 1.0e-7
    #: Point-to-point link / NIC bandwidth (bytes/s).
    link_bandwidth: float = 5.0e9
    #: Latency for messages between ranks on the same node.
    intra_node_latency: float = 4.0e-7
    #: Shared-memory transfer bandwidth inside a node (bytes/s).
    intra_node_bandwidth: float = 2.0e10

    #: Per-request positioning/service overhead on an OST.
    ost_seek: float = 1.0e-3
    #: Streaming bandwidth of a single OST (bytes/s).
    ost_bandwidth: float = 2.25e8

    #: Rate at which one core performs "analysis work", expressed as
    #: elements/second for a unit-cost operator (ops_per_element == 1).
    core_element_rate: float = 4.0e8
    #: memcpy / pack / unpack bandwidth per core (bytes/s) — charged as
    #: system time in CPU profiles.
    memcpy_bandwidth: float = 6.0e9

    def __post_init__(self) -> None:
        # Checked where the numbers enter: a NaN or a negative latency
        # would otherwise surface deep inside a run as a bad timeout.
        for name in _LATENCY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(
                    f"CostModel.{name} must be finite and >= 0, got {value!r}")
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(
                    f"CostModel.{name} must be finite and > 0, got {value!r}")

    # -- derived durations -------------------------------------------------
    def msg_time(self, nbytes: int, hops: int = 1) -> float:
        """Time for one point-to-point network message of ``nbytes``."""
        return self.net_latency + hops * self.hop_latency + nbytes / self.link_bandwidth

    def intra_node_msg_time(self, nbytes: int) -> float:
        """Time for a message between two ranks on the same node."""
        return self.intra_node_latency + nbytes / self.intra_node_bandwidth

    def ost_time(self, nbytes: int) -> float:
        """Service time for one contiguous request on one OST."""
        if nbytes < 0:
            raise ConfigError(f"negative I/O size {nbytes}")
        return self.ost_seek + nbytes / self.ost_bandwidth

    def compute_time(self, elements: int, ops_per_element: float = 1.0) -> float:
        """CPU (user) time to apply an operator to ``elements`` values."""
        if elements < 0:
            raise ConfigError(f"negative element count {elements}")
        return elements * ops_per_element / self.core_element_rate

    def memcpy_time(self, nbytes: int) -> float:
        """CPU (system) time to pack/unpack/copy ``nbytes``."""
        if nbytes < 0:
            raise ConfigError(f"negative memcpy size {nbytes}")
        return nbytes / self.memcpy_bandwidth


@dataclass(frozen=True)
class PlatformSpec:
    """A complete machine description.

    Parameters
    ----------
    nodes:
        Number of compute nodes.
    cores_per_node:
        Cores available on each node (Hopper: 24).
    torus:
        Whether hop counts wrap around (Gemini is a torus).
    n_osts:
        Number of Lustre object storage targets.
    default_stripe_size:
        Stripe width in bytes for newly created files.
    default_stripe_count:
        OSTs a new file is striped across (-1 = all).
    cost:
        The :class:`CostModel` for this platform.
    """

    nodes: int = 5
    cores_per_node: int = 24
    torus: bool = True
    n_osts: int = 156
    default_stripe_size: int = 4 * MiB
    default_stripe_count: int = -1
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError(f"need >= 1 node, got {self.nodes}")
        if self.cores_per_node < 1:
            raise ConfigError(f"need >= 1 core per node, got {self.cores_per_node}")
        if self.n_osts < 1:
            raise ConfigError(f"need >= 1 OST, got {self.n_osts}")
        if self.default_stripe_size < 1:
            raise ConfigError("stripe size must be positive")

    @property
    def total_cores(self) -> int:
        """Total core count across the machine."""
        return self.nodes * self.cores_per_node

    def resolved_mesh_shape(self) -> Tuple[int, int]:
        """The 2-D mesh/torus extent used for hop counts: the
        near-square one that holds ``nodes``."""
        nx = max(1, int(math.isqrt(self.nodes)))
        ny = (self.nodes + nx - 1) // nx
        return (nx, ny)


def hopper_like(nodes: int = 5, *, n_osts: int = 156,
                stripe_size: int = 4 * MiB,
                cost: CostModel | None = None) -> PlatformSpec:
    """The paper's testbed: Cray XE6 'Hopper'-like platform.

    24 cores/node, Gemini-style torus, Lustre with ``n_osts`` OSTs.
    """
    return PlatformSpec(
        nodes=nodes,
        cores_per_node=24,
        torus=True,
        n_osts=n_osts,
        default_stripe_size=stripe_size,
        cost=cost or CostModel(),
    )


def small_test_machine(nodes: int = 2, cores_per_node: int = 4,
                       n_osts: int = 4,
                       stripe_size: int = 64 * KiB,
                       cost: CostModel | None = None) -> PlatformSpec:
    """A tiny platform for unit tests — small enough that every message
    and OST request is easy to reason about by hand."""
    return PlatformSpec(
        nodes=nodes,
        cores_per_node=cores_per_node,
        torus=False,
        n_osts=n_osts,
        default_stripe_size=stripe_size,
        cost=cost or CostModel(),
    )
