"""File metadata object for the simulated parallel file system."""

from __future__ import annotations

from typing import List, Optional

from ..integrity.digest import crc32c
from .datasource import DataSource
from .striping import StripeLayout

#: Bytes digested per chunk when computing block digests (kept aligned
#: to whole digest blocks so chaining is never needed across blocks).
_DIGEST_CHUNK = 8 * 1024 * 1024


class PFSFile:
    """Metadata of one file: name, size, striping, and backing source.

    Instances are created through :meth:`repro.pfs.lustre.LustreFS.create_file`
    rather than directly.

    With an :class:`~repro.integrity.IntegrityManager` attached to the
    file system, each file additionally carries one CRC32C digest per
    *digest block* — a stripe-size-aligned extent, so every digest
    block lives entirely on one OST and a mismatch names the device
    that served the bad bytes.
    """

    def __init__(self, name: str, source: DataSource, layout: StripeLayout) -> None:
        self.name = name
        self.source = source
        self.layout = layout
        #: Digest-block size in bytes (the stripe size); set when
        #: digests are computed.
        self.digest_block: Optional[int] = None
        #: One CRC32C per digest block, or ``None`` when the file has
        #: never been digested (integrity off).
        self.block_digests: Optional[List[int]] = None

    @property
    def size(self) -> int:
        """File size in bytes."""
        return self.source.size

    @property
    def writable(self) -> bool:
        """Whether the backing source accepts writes."""
        return self.source.writable

    # -- integrity ---------------------------------------------------------
    def compute_digests(self) -> int:
        """(Re)digest the whole file; returns the block count.

        Reads the pristine source in bounded chunks, so digesting an
        experiment-scale procedural file never materialises it whole.
        """
        block = self.layout.stripe_size
        self.digest_block = block
        digests: List[int] = []
        chunk = max(block, (_DIGEST_CHUNK // block) * block)
        for start in range(0, self.size, chunk):
            data = memoryview(self.source.read(
                start, min(chunk, self.size - start)))
            for lo in range(0, len(data), block):
                digests.append(crc32c(data[lo:lo + block]))
        self.block_digests = digests
        return len(digests)

    def refresh_digests(self, offset: int, nbytes: int) -> int:
        """Re-digest the blocks overlapping ``[offset, offset+nbytes)``
        after an in-place write; returns the refreshed block count.

        No-op when the file has never been digested."""
        if self.block_digests is None or nbytes <= 0:
            return 0
        block = self.digest_block
        first = offset // block
        last = (offset + nbytes - 1) // block
        for b in range(first, last + 1):
            lo = b * block
            hi = min(lo + block, self.size)
            self.block_digests[b] = crc32c(self.source.read(lo, hi - lo))
        return last - first + 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PFSFile {self.name!r} size={self.size} "
                f"stripes={self.layout.stripe_count}x{self.layout.stripe_size}>")
