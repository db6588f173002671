"""Nonblocking collective I/O (NB-CIO) — the related work of §V-A.

``icollective_read`` starts a whole two-phase collective read in the
background and returns a request; the caller overlaps *other* work and
waits later.  This is the coarse-grained overlap the paper contrasts
with collective computing: computation can only run on **independent**
data while the read is in flight, never on the bytes being read — so
it cannot shrink the shuffle, only hide compute that doesn't need the
incoming data.

The ablation benchmark ``bench_ablation`` compares CC against exactly
this baseline.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..mpi import RankContext, Request
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .hints import CollectiveHints
from .requests import AccessRequest
from .twophase import collective_read


def icollective_read(ctx: RankContext, file: PFSFile, request: AccessRequest,
                     hints: Optional[CollectiveHints] = None,
                     timeline: Optional[PhaseTimeline] = None) -> Request:
    """Start a nonblocking two-phase collective read.

    Every rank must call this at the same point in its program (it
    consumes the communicator's collective sequence numbers exactly as
    the blocking call would).  The returned request's value is the
    packed ``uint8`` buffer.

    .. warning::
       As with MPI's ``MPI_File_iread_all``, the rank must not start
       another collective on the same communicator until this one is
       waited on, or the collective tag streams interleave.
    """
    proc = ctx.kernel.process(
        collective_read(ctx, file, request, hints, timeline),
        name=f"nbcio:r{ctx.rank}",
    )
    return Request(proc)


def wait_and_unpack(ctx: RankContext, req: Request,
                    request: AccessRequest) -> Generator:
    """Wait for an :func:`icollective_read` and view the result as the
    request's element type (recorded as I/O wait time)."""
    buf = yield from ctx.wait_recording(req.event)
    return request.as_array(buf)
