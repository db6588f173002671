"""MPI-IO hints controlling collective buffering (ROMIO ``cb_*`` hints).

The paper's experiments vary exactly these knobs: the collective buffer
size (Figures 1 & 12) and the number of aggregators per node (Figure 1
uses 6 per node; the main benchmarks use one per node, "the number of
aggregators is equal to the number of compute nodes").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MiB
from ..errors import IOLayerError


@dataclass(frozen=True)
class CollectiveHints:
    """Tunables of the two-phase protocol.

    Parameters
    ----------
    cb_buffer_size:
        Collective buffer bytes per aggregator per iteration (ROMIO
        default 4 MiB in MPICH of the paper's era).
    aggregators_per_node:
        How many ranks per node act as aggregators.
    pipeline:
        Overlap iteration ``i``'s shuffle with iteration ``i+1``'s read
        (the nonblocking two-phase variant the paper profiles in Fig 1).
        Every read path honours it through the one window reader
        (:func:`repro.io.twophase.read_windows`): the raw and CC
        collective reads, independent-mode analysis, and the resilient
        serving rounds under faults or integrity.
    two_level:
        Node-aware two-level aggregation.  The offset-list exchange and
        the shuffle stage data through one leader per node before any
        inter-node traffic (intra-node request aggregation, after Kang
        et al., arXiv:1907.12656); the CC path additionally combines
        partial results node-locally before they cross the network when
        the reduction op is :attr:`~repro.core.ops.MapReduceOp.reassociable`
        (in-node combiner, after Lee et al., arXiv:1511.04861).  Data
        results are bit-identical to the one-level protocol; only
        ``sim.time`` and cross-node wire bytes change.  The resilient
        protocols of :mod:`repro.faults.resilient` run one-level only
        and raise :class:`~repro.errors.IOLayerError` for this hint.
    """

    cb_buffer_size: int = 4 * MiB
    aggregators_per_node: int = 1
    pipeline: bool = True
    two_level: bool = False

    def __post_init__(self) -> None:
        if self.cb_buffer_size < 1:
            raise IOLayerError(
                f"cb_buffer_size must be positive, got {self.cb_buffer_size}"
            )
        if self.aggregators_per_node < 1:
            raise IOLayerError(
                f"aggregators_per_node must be >= 1, got {self.aggregators_per_node}"
            )
