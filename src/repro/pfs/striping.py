"""Round-robin striping layout (Lustre-style).

A file is cut into fixed-size *stripes*; stripe ``k`` lives on OST
``(start_ost + k) % stripe_count`` (indices into the file's OST list).
The layout answers the only two questions the I/O path needs:

* which OST serves a given byte offset, and
* how a byte extent splits into per-OST contiguous segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import PFSError


@dataclass(frozen=True)
class Segment:
    """A contiguous piece of a file extent that lands on one OST.

    Attributes
    ----------
    ost:
        Global OST index serving this piece.
    file_offset:
        Byte offset of the piece within the file.
    length:
        Piece length in bytes.
    """

    ost: int
    file_offset: int
    length: int


class StripeLayout:
    """Round-robin mapping from file byte ranges to OSTs.

    Parameters
    ----------
    stripe_size:
        Stripe width in bytes (> 0).
    osts:
        Global OST indices the file is striped across, in round-robin
        order starting with the OST that holds stripe 0.
    """

    def __init__(self, stripe_size: int, osts: Sequence[int]) -> None:
        if stripe_size <= 0:
            raise PFSError(f"stripe size must be positive, got {stripe_size}")
        if not osts:
            raise PFSError("a file must be striped over at least one OST")
        if len(set(osts)) != len(osts):
            raise PFSError(f"duplicate OSTs in stripe list: {list(osts)}")
        self.stripe_size = int(stripe_size)
        self.osts: Tuple[int, ...] = tuple(int(o) for o in osts)

    @property
    def stripe_count(self) -> int:
        """Number of OSTs in the rotation."""
        return len(self.osts)

    def ost_of(self, offset: int) -> int:
        """Global OST index that stores the byte at ``offset``."""
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        stripe_index = offset // self.stripe_size
        return self.osts[stripe_index % self.stripe_count]

    def split_extent(self, offset: int, length: int) -> List[Segment]:
        """Split ``[offset, offset+length)`` into per-OST segments.

        Adjacent stripes on the *same* OST (possible only when
        ``stripe_count == 1``) are merged into one segment.
        """
        if offset < 0 or length < 0:
            raise PFSError(f"invalid extent ({offset}, {length})")
        segments: List[Segment] = []
        pos = offset
        end = offset + length
        while pos < end:
            stripe_index = pos // self.stripe_size
            stripe_end = (stripe_index + 1) * self.stripe_size
            piece = min(end, stripe_end) - pos
            ost = self.osts[stripe_index % self.stripe_count]
            if segments and segments[-1].ost == ost and \
                    segments[-1].file_offset + segments[-1].length == pos:
                last = segments[-1]
                segments[-1] = Segment(ost, last.file_offset, last.length + piece)
            else:
                segments.append(Segment(ost, pos, piece))
            pos += piece
        return segments

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<StripeLayout size={self.stripe_size} "
                f"count={self.stripe_count} start={self.osts[0]}>")
