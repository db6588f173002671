"""Map on logical subsets (paper §III-B).

Given an aggregator's freshly-read window and the pieces of one rank's
request inside it, the map engine

1. reconstructs each piece's logical coordinates from the byte offsets
   and the dataset metadata (the *logical map*),
2. runs the user's map over the piece's values (vectorized), and
3. wraps the combined partial + coordinate metadata into a
   :class:`~repro.core.metadata.PartialResult`.

The returned element count feeds the CPU cost model, so map time is
charged where the computation actually happens — on the aggregator,
inside the I/O pipeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dataspace import DatasetSpec, RunList, reconstruct_run
from ..errors import CollectiveComputingError
from .metadata import PartialResult
from .ops import MapReduceOp


def map_pieces(spec: DatasetSpec, op: MapReduceOp, window_data: np.ndarray,
               window_read_lo: int, pieces: RunList, dest_rank: int,
               iteration: int) -> Tuple[Optional[PartialResult], int]:
    """Map one rank's pieces of one window.

    Parameters
    ----------
    spec:
        Dataset metadata (needed for the logical map).
    op:
        The user operator from the object I/O.
    window_data:
        The aggregator's window buffer (uint8).
    window_read_lo:
        Absolute file offset of ``window_data[0]``.
    pieces:
        The destination rank's byte runs inside the window.
    dest_rank / iteration:
        Metadata recorded into the partial result.

    Returns
    -------
    (partial, elements):
        The combined :class:`PartialResult` (None when ``pieces`` is
        empty) and the number of elements mapped (for CPU charging).
    """
    if not len(pieces):
        return None, 0
    item = spec.itemsize
    dtype = spec.dtype
    partials = []
    blocks = []
    total_elements = 0
    for off, nbytes in pieces:
        if nbytes % item or (off - spec.file_offset) % item:
            raise CollectiveComputingError(
                f"piece ({off}, {nbytes}) not element-aligned ({item}B items)"
            )
        lo = off - window_read_lo
        if lo < 0 or lo + nbytes > window_data.nbytes:
            raise CollectiveComputingError(
                f"piece ({off}, {nbytes}) outside window buffer"
            )
        values = window_data[lo:lo + nbytes].view(dtype)
        first_linear = spec.element_of_byte(off)
        partials.append(op.map_chunk(values, first_linear))
        blocks.extend(reconstruct_run(spec, off, nbytes))
        total_elements += values.size
    combined = op.combine_many(partials)
    partial = PartialResult(
        dest_rank=dest_rank,
        iteration=iteration,
        blocks=tuple(blocks),
        payload=combined,
        payload_nbytes=op.partial_nbytes(combined),
    )
    return partial, total_elements


def linear_indices_of_runs(spec: DatasetSpec, runs: RunList) -> np.ndarray:
    """Dataset linear indices of every element of ``runs``, in packed
    (file) order — what the *traditional* post-I/O compute path needs to
    run location-aware operators over its packed buffer.

    Vectorized concatenation of per-run ``arange``\\ s.
    """
    if not len(runs):
        return np.empty(0, dtype=np.int64)
    item = spec.itemsize
    starts = (runs.offsets - spec.file_offset) // item
    lens = runs.lengths // item
    total = int(lens.sum())
    steps = np.ones(total, dtype=np.int64)
    heads = np.cumsum(lens)[:-1]  # packed positions of runs 1..n-1
    steps[heads] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    steps[0] = starts[0]
    return np.cumsum(steps)
