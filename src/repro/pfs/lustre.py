"""Lustre-like parallel file system.

:class:`LustreFS` owns the OST pool and the file namespace.  A read or
write of a contiguous byte extent is split by the file's stripe layout
into per-OST segments which are serviced **concurrently** (one
background OST request per segment), with queueing at each OST —
exactly the behaviour that gives striped files their aggregate
bandwidth and that makes OST contention visible when many aggregators
hit the same stripes.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from ..config import CostModel
from ..errors import PFSError
from ..sim import Kernel
from .datasource import DataSource, ProceduralSource
from .file import PFSFile
from .ost import OST
from .striping import StripeLayout


class LustreFS:
    """The machine's parallel file system.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    n_osts:
        Number of object storage targets.
    cost:
        Platform cost model.
    default_stripe_size / default_stripe_count:
        Striping defaults for :meth:`create_file` (count -1 = all OSTs).
    """

    def __init__(self, kernel: Kernel, n_osts: int, cost: CostModel,
                 default_stripe_size: int, default_stripe_count: int = -1) -> None:
        if n_osts < 1:
            raise PFSError(f"need >= 1 OST, got {n_osts}")
        self.kernel = kernel
        self.cost = cost
        self.osts: List[OST] = [OST(kernel, i, cost) for i in range(n_osts)]
        self.default_stripe_size = default_stripe_size
        self.default_stripe_count = default_stripe_count
        self._files: Dict[str, PFSFile] = {}
        #: Set by :class:`~repro.cluster.machine.Machine`: when present,
        #: file data additionally crosses the client node's NIC (the
        #: LNET-over-Gemini data path of the paper's testbed).
        self.network = None
        #: Set by :meth:`repro.faults.FaultInjector.attach`: when
        #: present, every read consults it for per-segment OST
        #: stragglers and injected transient EIOs.
        self.faults = None
        #: Set by :meth:`repro.integrity.IntegrityManager.attach`: when
        #: present, new files get per-stripe-block CRC32C digests and
        #: every read verifies the served extent against them.
        self.integrity = None

    # -- namespace ---------------------------------------------------------
    def create_file(self, name: str, source: DataSource, *,
                    stripe_size: Optional[int] = None,
                    stripe_count: Optional[int] = None,
                    start_ost: int = 0) -> PFSFile:
        """Register a file backed by ``source`` with round-robin striping.

        ``stripe_count`` of ``-1`` (or None with a ``-1`` default) stripes
        across every OST, matching `lfs setstripe -c -1`.
        """
        if name in self._files:
            raise PFSError(f"file {name!r} already exists")
        size = stripe_size if stripe_size is not None else self.default_stripe_size
        count = stripe_count if stripe_count is not None else self.default_stripe_count
        if count == -1:
            count = len(self.osts)
        if not 1 <= count <= len(self.osts):
            raise PFSError(
                f"stripe count {count} outside [1, {len(self.osts)}]"
            )
        if not 0 <= start_ost < len(self.osts):
            raise PFSError(f"start OST {start_ost} out of range")
        osts = [(start_ost + k) % len(self.osts) for k in range(count)]
        f = PFSFile(name, source, StripeLayout(size, osts))
        self._files[name] = f
        if self.integrity is not None:
            self.integrity.ensure_digests(f)
        return f

    def create_procedural_file(self, name: str, n_elements: int, *,
                               dtype=np.float64, func=None,
                               stripe_size: Optional[int] = None,
                               stripe_count: Optional[int] = None,
                               start_ost: int = 0) -> PFSFile:
        """Shorthand: create a file backed by a :class:`ProceduralSource`."""
        src = ProceduralSource(n_elements, dtype=dtype, func=func)
        return self.create_file(name, src, stripe_size=stripe_size,
                                stripe_count=stripe_count, start_ost=start_ost)

    def lookup(self, name: str) -> PFSFile:
        """Fetch file metadata; raises :class:`PFSError` if unknown."""
        try:
            return self._files[name]
        except KeyError:
            raise PFSError(f"no such file: {name!r}") from None

    # -- data path -----------------------------------------------------------
    def read(self, file: PFSFile, offset: int, nbytes: int,
             client: Optional[int] = None) -> Generator:
        """Sub-process reading ``nbytes`` at ``offset``; returns the bytes.

        The extent is split into per-OST segments serviced concurrently;
        the read completes when the slowest segment does.  With
        ``client`` given (a node index) the data additionally crosses
        that node's inbound NIC, contending with message traffic exactly
        as Lustre-over-Gemini does on the paper's testbed.
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > file.size:
            raise PFSError(
                f"read [{offset}, {offset + nbytes}) outside file "
                f"{file.name!r} of size {file.size}"
            )
        if nbytes == 0:
            # A zero-byte read still pays one request's latency.
            yield self.kernel.timeout(self.cost.ost_seek)
            return b""
        segments = file.layout.split_extent(offset, nbytes)
        if self.faults is not None and self.faults.plan.any_faults:
            # Decide every segment's fate up front (stateless plan).  A
            # failing segment completes with its EIO, so its siblings
            # drain their OST queues before the first failure (in
            # extent order) is raised.
            decisions = [self.faults.ost_decision(seg.ost)
                         for seg in segments]
        else:
            decisions = [(1.0, False)] * len(segments)
        osts = self.osts
        services = [osts[seg.ost].start_service(seg.length, mult, fail)
                    for seg, (mult, fail) in zip(segments, decisions)]
        for err in (yield self.kernel.all_of(services)):
            if err is not None:
                raise err
        if client is not None and self.network is not None:
            yield from self.network.inject(client, nbytes)
        data = file.source.read(offset, nbytes)
        # Silent-corruption hook: the injector may flip a bit in the
        # *served copy* (the source stays pristine); with integrity
        # attached, the extent is then verified block-by-block and a
        # flipped bit surfaces as a retryable IntegrityError instead of
        # poisoning the reduction downstream.
        if self.faults is not None and self.faults.plan.corrupt_ost_rate:
            data = self.faults.corrupt_served(file, offset, data)
        if self.integrity is not None:
            self.integrity.verify_read(file, offset, data)
        return data

    def write(self, file: PFSFile, offset: int, data: bytes,
              client: Optional[int] = None) -> Generator:
        """Sub-process writing ``data`` at ``offset``; with ``client``
        given, the data first crosses that node's outbound NIC."""
        nbytes = len(data)
        if offset < 0 or offset + nbytes > file.size:
            raise PFSError(
                f"write [{offset}, {offset + nbytes}) outside file "
                f"{file.name!r} of size {file.size}"
            )
        if not file.writable:
            raise PFSError(f"file {file.name!r} is read-only")
        if nbytes == 0:
            yield self.kernel.timeout(self.cost.ost_seek)
            return None
        if client is not None and self.network is not None:
            yield from self.network.eject(client, nbytes)
        segments = file.layout.split_extent(offset, nbytes)
        osts = self.osts
        yield self.kernel.all_of([osts[seg.ost].start_service(seg.length)
                                  for seg in segments])
        file.source.write(offset, data)
        # Digested files stay verifiable across in-place writes, also
        # with no manager attached; an attached one counts the blocks.
        digested = file.refresh_digests(offset, nbytes)
        if self.integrity is not None:
            self.integrity.count_digested(digested)
        return None

    # -- diagnostics -----------------------------------------------------------
    def total_bytes_served(self) -> int:
        """Bytes served across all OSTs since construction."""
        return sum(o.bytes_served for o in self.osts)
