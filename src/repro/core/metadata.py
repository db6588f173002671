"""Intermediate-result metadata (paper §III-B/§III-C and Figure 12).

Each partial result produced by a map inside the I/O pipeline carries
metadata: which process the result belongs to, which iteration produced
it, and the logical coordinates of the data it covers.  The paper
measures the *storage overhead* of this metadata as a function of the
collective buffer size (Figure 12) — smaller buffers split logical
subsets across iterations and multiply the records.

The byte-size model charged on the wire and accumulated in
:class:`CCStats`:

``HEADER_BYTES + n_blocks * ndims * 2 * 8`` (a start/count int64 pair
per dimension per block) plus the payload size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..dataspace import LogicalBlock

#: Fixed per-record header: dest process id, iteration, block count.
HEADER_BYTES = 24


@dataclass(frozen=True)
class PartialResult:
    """One map output travelling through the shuffle.

    Attributes
    ----------
    dest_rank:
        The process whose request region this partial belongs to.
    iteration:
        Aggregator iteration that produced it.
    blocks:
        Logical coordinates covered (reconstructed by the logical map).
    payload:
        The operator partial (scalar, tuple, small array).
    payload_nbytes:
        Wire size of ``payload`` as reported by the operator.
    digest:
        Provenance digest stamped at map time by the integrity layer
        (:func:`repro.integrity.partial_digest` over every field *but*
        this one), or ``None`` when integrity is off.  Re-verified at
        reduce time; carried on the wire, so it adds exactly its own
        length to :meth:`wire_size`.
    """

    dest_rank: int
    iteration: int
    blocks: Tuple[LogicalBlock, ...]
    payload: Any
    payload_nbytes: int
    digest: Optional[bytes] = None

    @property
    def ndims(self) -> int:
        """Dimensionality of the logical blocks (0 when block-less)."""
        return len(self.blocks[0].start) if self.blocks else 0

    def metadata_nbytes(self) -> int:
        """Bytes of metadata this record carries."""
        return HEADER_BYTES + len(self.blocks) * self.ndims * 16

    def wire_size(self) -> int:
        """Total message contribution: metadata + payload (+ digest)."""
        extra = len(self.digest) if self.digest is not None else 0
        return self.metadata_nbytes() + self.payload_nbytes + extra


@dataclass
class CCStats:
    """Counters a collective-computing run accumulates.

    These are the measured quantities behind Figures 11 and 12: the
    metadata volume, the shuffle traffic, and the time spent in the
    framework's own "local reduction" work.
    """

    #: Total metadata bytes across all partial results.
    metadata_bytes: int = 0
    #: Total payload bytes shipped through the shuffle.
    payload_bytes: int = 0
    #: Number of partial-result records produced.
    partial_count: int = 0
    #: Number of logical blocks across all records.
    block_count: int = 0
    #: Elements processed by map calls.
    map_elements: int = 0
    #: Simulated seconds spent combining partials ("local reduction",
    #: the overhead quantity of Figure 11).
    local_reduction_time: float = 0.0
    #: Simulated seconds spent in map computation.
    map_time: float = 0.0
    #: Per-rank partial-record counts (diagnostics).
    partials_by_rank: Dict[int, int] = field(default_factory=dict)

    def add_partial(self, partial: PartialResult) -> None:
        """Account one produced partial result."""
        self.metadata_bytes += partial.metadata_nbytes()
        self.payload_bytes += partial.payload_nbytes
        self.partial_count += 1
        self.block_count += len(partial.blocks)
        self.partials_by_rank[partial.dest_rank] = (
            self.partials_by_rank.get(partial.dest_rank, 0) + 1
        )

    @property
    def shuffle_bytes(self) -> int:
        """Bytes the CC shuffle moves (metadata + payloads)."""
        return self.metadata_bytes + self.payload_bytes
