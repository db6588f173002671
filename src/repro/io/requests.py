"""Access-request plumbing shared by the I/O strategies.

:class:`AccessRequest` bundles what one rank wants from a file — a
dataset + hyperslab view and its flattened byte runs, the only request
description the I/O strategies consume — and :class:`RunPlacer` maps
absolute file pieces back into the rank's local, densely-packed
receive buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..dataspace import DatasetSpec, RunList, Subarray, flatten_subarray
from ..errors import IOLayerError


@dataclass(frozen=True)
class AccessRequest:
    """One rank's request against one file: a hyperslab of a dataset,
    as PnetCDF's ``ncmpi_get_vara_*_all`` describes it.

    Build with :meth:`from_subarray`.
    """

    runs: RunList
    spec: DatasetSpec
    sub: Subarray

    @classmethod
    def from_subarray(cls, spec: DatasetSpec, sub: Subarray) -> "AccessRequest":
        """Request a hyperslab of a dataset."""
        return cls(runs=flatten_subarray(spec, sub), spec=spec, sub=sub)

    @property
    def nbytes(self) -> int:
        """Requested data volume."""
        return self.runs.total_bytes

    def as_array(self, data: np.ndarray) -> np.ndarray:
        """Reinterpret the densely packed byte buffer as the request's
        element type, shaped to the hyperslab."""
        return data.view(self.spec.dtype).reshape(self.sub.count)


class RunPlacer:
    """Maps absolute file pieces into a rank's packed local buffer.

    The local buffer concatenates the rank's runs in ascending file
    order, which for a flattened hyperslab equals row-major element
    order.  ``place(offset, length)`` returns the local byte positions
    covered — a piece may span several runs only if the caller allows
    it (two-phase senders always send per-run pieces, but data sieving
    extracts window-sized spans).
    """

    def __init__(self, runs: RunList) -> None:
        self.runs = runs
        self._prefix = np.concatenate(
            ([0], np.cumsum(runs.lengths))) if len(runs) else np.zeros(1, np.int64)

    @property
    def total_bytes(self) -> int:
        """Size of the packed buffer."""
        return int(self._prefix[-1])

    def place(self, offset: int, length: int) -> List[Tuple[int, int, int]]:
        """``[(local_pos, file_offset, piece_len), ...]`` covering the
        intersection of ``[offset, offset+length)`` with the runs.

        Raises :class:`IOLayerError` if any requested byte of the span
        that lies inside a run is... — pieces must be fully covered by
        the runs; bytes in holes are ignored only by
        :meth:`place_clipped`.
        """
        placed = self.place_clipped(offset, length)
        got = sum(p[2] for p in placed)
        if got != length:
            raise IOLayerError(
                f"piece ({offset}, {length}) not fully covered by request "
                f"runs (covered {got} bytes)"
            )
        return placed

    def place_clipped(self, offset: int, length: int
                      ) -> List[Tuple[int, int, int]]:
        """Like :meth:`place` but silently skipping bytes that fall in
        holes between runs (used when unpacking sieving windows)."""
        runs = self.runs
        if length > 0 and len(runs):
            # Fast path: two-phase shuffle pieces lie inside one run.
            idx = int(np.searchsorted(runs.offsets, offset, side="right")) - 1
            if idx >= 0:
                run_off = int(runs.offsets[idx])
                if offset + length <= run_off + int(runs.lengths[idx]):
                    local = int(self._prefix[idx]) + (offset - run_off)
                    return [(local, offset, length)]
        clipped = self.runs.clip(offset, offset + length)
        out: List[Tuple[int, int, int]] = []
        for o, n in clipped:
            idx = int(np.searchsorted(self.runs.offsets, o, side="right")) - 1
            run_off = int(self.runs.offsets[idx])
            local = int(self._prefix[idx]) + (o - run_off)
            out.append((local, o, n))
        return out
