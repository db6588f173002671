"""The assembled machine: nodes + network + parallel file system.

:class:`Machine` is the root object an experiment builds once per run.
It also owns the rank→node placement (block mapping, as with default
`aprun`/`srun` placement: consecutive ranks fill a node before moving to
the next one).
"""

from __future__ import annotations

from typing import List

from ..config import PlatformSpec
from ..errors import ConfigError
from ..pfs import LustreFS
from ..sim import Kernel
from .network import Network
from .node import Node
from .topology import MeshTopology


class Machine:
    """A simulated cluster built from a :class:`~repro.config.PlatformSpec`.

    Parameters
    ----------
    kernel:
        The simulation kernel everything runs on.
    spec:
        Platform description (nodes, cores, OSTs, cost model).
    """

    def __init__(self, kernel: Kernel, spec: PlatformSpec) -> None:
        self.kernel = kernel
        self.spec = spec
        self.cost = spec.cost
        self.topology = MeshTopology(spec.nodes, spec.resolved_mesh_shape(),
                                     torus=spec.torus)
        self.nodes: List[Node] = [
            Node(kernel, i, spec.cores_per_node) for i in range(spec.nodes)
        ]
        self.network = Network(kernel, self.nodes, self.topology, spec.cost)
        self.fs = LustreFS(kernel, spec.n_osts, spec.cost,
                           default_stripe_size=spec.default_stripe_size,
                           default_stripe_count=spec.default_stripe_count)
        # File data shares the interconnect with messages (LNET/Gemini).
        self.fs.network = self.network
        #: Set by :meth:`repro.faults.FaultInjector.attach`: when
        #: present, point-to-point messages consult it for injected
        #: drops and delays.
        self.faults = None
        #: Set by :meth:`repro.integrity.IntegrityManager.attach`: when
        #: present, window messages carry payload digests verified on
        #: receive and partial results carry provenance digests
        #: re-verified at reduce time.
        self.integrity = None

    # -- placement -------------------------------------------------------
    def node_of_rank(self, rank: int, nprocs: int) -> int:
        """Node index hosting ``rank`` under block placement.

        Ranks are spread as evenly as possible: with ``nprocs`` ranks on
        ``N`` nodes, each node receives ``ceil`` or ``floor`` of the
        average, consecutive ranks first.
        """
        if not 0 <= rank < nprocs:
            raise ConfigError(f"rank {rank} outside [0, {nprocs})")
        n = self.spec.nodes
        per, extra = divmod(nprocs, n)
        # First `extra` nodes carry (per + 1) ranks.
        boundary = extra * (per + 1)
        if rank < boundary:
            return rank // (per + 1)
        if per == 0:
            raise ConfigError(
                f"{nprocs} ranks cannot be placed on {n} nodes"
            )
        return extra + (rank - boundary) // per

    def ranks_on_node(self, node: int, nprocs: int) -> List[int]:
        """All ranks placed on ``node`` for a job of ``nprocs`` ranks
        (ascending; empty for an unoccupied or out-of-range node).

        The closed form of :meth:`node_of_rank`'s block placement: the
        first ``extra`` nodes hold ``per + 1`` consecutive ranks, the
        rest ``per``.
        """
        n = self.spec.nodes
        if not 0 <= node < n:
            return []
        per, extra = divmod(nprocs, n)
        if node < extra:
            lo = node * (per + 1)
            return list(range(lo, lo + per + 1))
        lo = extra * (per + 1) + (node - extra) * per
        return list(range(lo, lo + per))

    def validate_job(self, nprocs: int) -> None:
        """Check that ``nprocs`` ranks fit the machine's cores."""
        if nprocs < 1:
            raise ConfigError(f"need >= 1 process, got {nprocs}")
        if nprocs > self.spec.total_cores:
            raise ConfigError(
                f"{nprocs} ranks exceed {self.spec.total_cores} cores "
                f"({self.spec.nodes} nodes x {self.spec.cores_per_node})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Machine nodes={self.spec.nodes} "
                f"cores/node={self.spec.cores_per_node} "
                f"osts={self.spec.n_osts}>")
