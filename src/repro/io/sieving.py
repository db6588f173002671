"""Data sieving (ROMIO's other classic optimization).

Instead of one tiny read per run, a rank reads a large contiguous
window spanning many runs — holes included — and extracts the useful
bytes in memory.  Far fewer I/O requests at the price of extra bytes
moved and extra copying (charged as system time).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..config import MiB
from ..errors import IOLayerError
from ..mpi import RankContext
from ..pfs import PFSFile
from .aggregation import iteration_windows
from .requests import AccessRequest, RunPlacer
from .twophase import read_windows


def sieving_read(ctx: RankContext, file: PFSFile, request: AccessRequest,
                 buffer_size: int = 4 * MiB) -> Generator:
    """Read ``request`` with data sieving.

    Windows of at most ``buffer_size`` bytes sweep the request's extent;
    each window is fetched with one contiguous PFS read from its first
    to its last needed byte, then the useful runs are copied out.  The
    reads go through the shared window reader
    (:func:`~repro.io.twophase.read_windows`), so a transient EIO is
    retried as on every other read path.  Returns the packed ``uint8``
    buffer.
    """
    if buffer_size < 1:
        raise IOLayerError(f"buffer_size must be >= 1, got {buffer_size}")
    runs = request.runs
    placer = RunPlacer(runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    ext = runs.extent()
    if ext is None:
        return buf
    spans = [runs.clip(lo, hi).extent()
             for lo, hi in iteration_windows(ext, runs, buffer_size)]

    def unpack(_t: int, read_lo: int, raw: np.ndarray) -> Generator:
        useful = 0
        for local, file_off, piece in placer.place_clipped(read_lo,
                                                           raw.size):
            src = file_off - read_lo
            buf[local:local + piece] = raw[src:src + piece]
            useful += piece
        yield from ctx.memcpy(useful)

    yield from read_windows(ctx, file, spans, False, unpack)
    return buf
