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
from .requests import AccessRequest, RunPlacer


def sieving_read(ctx: RankContext, file: PFSFile, request: AccessRequest,
                 buffer_size: int = 4 * MiB) -> Generator:
    """Read ``request`` with data sieving.

    Windows of at most ``buffer_size`` bytes sweep the request's extent;
    each window is fetched with one contiguous PFS read from its first
    to its last needed byte, then the useful runs are copied out.
    Returns the packed ``uint8`` buffer.
    """
    if buffer_size < 1:
        raise IOLayerError(f"buffer_size must be >= 1, got {buffer_size}")
    placer = RunPlacer(request.runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    ext = request.runs.extent()
    if ext is None:
        return buf
    lo, hi = ext
    pos = lo
    while pos < hi:
        win_hi = min(pos + buffer_size, hi)
        window = request.runs.clip(pos, win_hi)
        wext = window.extent()
        if wext is not None:
            r_lo, r_hi = wext
            read = ctx.kernel.process(
                ctx.fs.read(file, r_lo, r_hi - r_lo, client=ctx.node.index),
                name=f"sieve:r{ctx.rank}@{r_lo}",
            )
            data = yield from ctx.wait_recording(read)
            raw = np.frombuffer(data, dtype=np.uint8)
            useful = 0
            for local, file_off, piece in placer.place_clipped(r_lo, r_hi - r_lo):
                src = file_off - r_lo
                buf[local:local + piece] = raw[src:src + piece]
                useful += piece
            yield from ctx.memcpy(useful)
        pos = win_hi
    return buf
