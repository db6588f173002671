"""MPI-IO style file handles (``MPI_File`` facade).

:class:`MPIFile` ties a communicator's view of one PFS file to the I/O
strategies: independent reads/writes at explicit offsets, file views
built from MPI derived datatypes, and the collective read/write entry
points.  The high-level PnetCDF-like layer sits on top of this.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..errors import IOLayerError
from ..mpi import RankContext
from ..mpi.datatypes import Datatype
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .hints import CollectiveHints
from .independent import independent_read, independent_write
from .requests import AccessRequest
from .sieving import sieving_read
from .twophase import collective_read, collective_write


class MPIFile:
    """One rank's handle on an open file.

    Parameters
    ----------
    ctx:
        The owning rank's context.
    file:
        PFS file metadata (from ``ctx.fs.lookup``).
    hints:
        Collective-buffering hints for this handle.
    """

    def __init__(self, ctx: RankContext, file: PFSFile,
                 hints: Optional[CollectiveHints] = None) -> None:
        self.ctx = ctx
        self.file = file
        self.hints = hints or CollectiveHints()
        self._view_disp = 0
        self._view_type: Optional[Datatype] = None

    @classmethod
    def open(cls, ctx: RankContext, name: str,
             hints: Optional[CollectiveHints] = None) -> "MPIFile":
        """Open ``name`` (must exist on the machine's file system)."""
        return cls(ctx, ctx.fs.lookup(name), hints=hints)

    # -- explicit offsets -----------------------------------------------------
    def read_at(self, offset: int, nbytes: int) -> Generator:
        """Independent contiguous read; returns bytes."""
        proc = self.ctx.kernel.process(
            self.ctx.fs.read(self.file, offset, nbytes,
                             client=self.ctx.node.index),
            name=f"read_at:r{self.ctx.rank}",
        )
        data = yield from self.ctx.wait_recording(proc)
        return data

    def write_at(self, offset: int, data: bytes) -> Generator:
        """Independent contiguous write."""
        proc = self.ctx.kernel.process(
            self.ctx.fs.write(self.file, offset, data,
                              client=self.ctx.node.index),
            name=f"write_at:r{self.ctx.rank}",
        )
        yield from self.ctx.wait_recording(proc)
        return None

    # -- file views ------------------------------------------------------------
    def set_view(self, disp: int, filetype: Datatype) -> None:
        """Install a file view: subsequent ``*_all`` calls address the
        bytes selected by ``filetype`` starting at byte ``disp``."""
        if disp < 0:
            raise IOLayerError(f"negative view displacement {disp}")
        self._view_disp = disp
        self._view_type = filetype

    def _view_request(self, count: int) -> AccessRequest:
        if self._view_type is None:
            raise IOLayerError("no file view set; call set_view first")
        runs = self._view_type.tiled(count).shift(self._view_disp)
        return AccessRequest.from_runs(runs)

    # -- collective entry points -------------------------------------------------
    def read_all(self, count: int = 1,
                 timeline: Optional[PhaseTimeline] = None) -> Generator:
        """Collective read of ``count`` filetype instances through the
        current view; returns the packed ``uint8`` buffer."""
        request = self._view_request(count)
        buf = yield from collective_read(self.ctx, self.file, request,
                                         self.hints, timeline)
        return buf

    def write_all(self, data: np.ndarray, count: int = 1,
                  timeline: Optional[PhaseTimeline] = None) -> Generator:
        """Collective write of ``count`` filetype instances."""
        request = self._view_request(count)
        yield from collective_write(self.ctx, self.file, request, data,
                                    self.hints, timeline)
        return None

    def read_request(self, request: AccessRequest, *, collective: bool = True,
                     sieve: bool = False,
                     timeline: Optional[PhaseTimeline] = None) -> Generator:
        """Read an explicit :class:`AccessRequest`.

        ``collective=True`` uses two-phase I/O (collective over the
        communicator); otherwise each rank reads independently, with
        ``sieve=True`` enabling data sieving.
        """
        if collective:
            buf = yield from collective_read(self.ctx, self.file, request,
                                             self.hints, timeline)
        elif sieve:
            buf = yield from sieving_read(self.ctx, self.file, request,
                                          buffer_size=self.hints.cb_buffer_size)
        else:
            buf = yield from independent_read(self.ctx, self.file, request)
        return buf

    def write_request(self, request: AccessRequest, data: np.ndarray, *,
                      collective: bool = True,
                      timeline: Optional[PhaseTimeline] = None) -> Generator:
        """Write an explicit :class:`AccessRequest`."""
        if collective:
            yield from collective_write(self.ctx, self.file, request, data,
                                        self.hints, timeline)
        else:
            yield from independent_write(self.ctx, self.file, request, data)
        return None
