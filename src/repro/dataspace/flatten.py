"""Flattening hyperslab selections into byte-offset run lists.

MPI-IO (and therefore two-phase collective I/O) operates on *flattened*
requests: sorted lists of contiguous ``(offset, length)`` byte runs.
This module produces and manipulates them.  Run lists are backed by
numpy arrays so that the large, highly non-contiguous access patterns of
the paper's climate workloads (hundreds of thousands of runs) stay cheap
to clip, merge and measure.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataspaceError
from .dataset import DatasetSpec
from .subarray import Subarray


class RunList:
    """An immutable, sorted, non-overlapping list of byte runs.

    Attributes
    ----------
    offsets / lengths:
        Parallel ``int64`` arrays; ``offsets`` strictly increasing and
        runs non-overlapping (``offsets[i] + lengths[i] <= offsets[i+1]``).
    """

    __slots__ = ("offsets", "lengths", "_sig", "_tb")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray,
                 _validated: bool = False) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self._sig = None
        self._tb = None
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        if self.offsets.shape != self.lengths.shape or self.offsets.ndim != 1:
            raise DataspaceError("offsets/lengths must be equal-length 1-D arrays")
        if self.offsets.size:
            if (self.lengths <= 0).any():
                raise DataspaceError("run lengths must be positive")
            if (self.offsets < 0).any():
                raise DataspaceError("run offsets must be non-negative")
            ends = self.offsets + self.lengths
            if (self.offsets[1:] < ends[:-1]).any():
                raise DataspaceError("runs must be sorted and non-overlapping")

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "RunList":
        """The run list with no runs."""
        z = np.empty(0, dtype=np.int64)
        return cls(z, z, _validated=True)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "RunList":
        """Build from ``(offset, length)`` pairs (any order; zero-length
        runs dropped; overlapping pairs unioned; adjacent runs
        coalesced)."""
        pairs = [(int(o), int(n)) for o, n in pairs if n > 0]
        if not pairs:
            return cls.empty()
        pairs.sort()
        if pairs[0][0] < 0:
            raise DataspaceError("run offsets must be non-negative")
        offs = np.array([p[0] for p in pairs], dtype=np.int64)
        lens = np.array([p[1] for p in pairs], dtype=np.int64)
        if (offs[1:] < (offs + lens)[:-1]).any():
            return _union_sorted(offs, lens)
        return cls(offs, lens, _validated=True).coalesce()

    @classmethod
    def single(cls, offset: int, length: int) -> "RunList":
        """A run list holding one run (or empty if ``length == 0``)."""
        if length == 0:
            return cls.empty()
        return cls(np.array([offset], dtype=np.int64),
                   np.array([length], dtype=np.int64))

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return int(self.offsets.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for o, n in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (o, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunList):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.lengths, other.lengths))

    def __hash__(self):  # pragma: no cover - unhashable by design
        raise TypeError("RunList is unhashable")

    def signature(self) -> int:
        """A content hash usable as a cache key component.

        ``RunList`` itself is deliberately unhashable (equality is by
        value, and silent hashing of large arrays would hide cost);
        caches key on ``signature()`` and must verify candidates with
        ``==`` — see :func:`repro.io.twophase.make_plan`.
        """
        sig = self._sig
        if sig is None:
            sig = hash((int(self.offsets.size),
                        self.offsets.tobytes(), self.lengths.tobytes()))
            self._sig = sig
        return sig

    @property
    def total_bytes(self) -> int:
        """Sum of run lengths (memoized; run lists are immutable)."""
        tb = self._tb
        if tb is None:
            tb = self._tb = int(np.add.reduce(self.lengths))
        return tb

    def wire_size(self) -> int:
        """Bytes this run list occupies in a message (offset/length pairs
        of int64 plus a small header) — how ROMIO's offset-list exchange
        is charged on the network."""
        return 16 + 16 * len(self)

    def extent(self) -> Optional[Tuple[int, int]]:
        """``(first_byte, last_byte_exclusive)`` or None when empty."""
        if not len(self):
            return None
        return (int(self.offsets[0]), int(self.offsets[-1] + self.lengths[-1]))

    # -- algebra ----------------------------------------------------------
    def coalesce(self) -> "RunList":
        """Merge runs that touch (``end[i] == offset[i+1]``)."""
        if len(self) < 2:
            return self
        ends = self.offsets + self.lengths
        breaks = np.flatnonzero(self.offsets[1:] != ends[:-1])
        starts_idx = np.concatenate(([0], breaks + 1))
        ends_idx = np.concatenate((breaks, [len(self) - 1]))
        offs = self.offsets[starts_idx]
        lens = ends[ends_idx] - offs
        return RunList(offs, lens, _validated=True)

    def clip(self, lo: int, hi: int) -> "RunList":
        """Runs intersected with the half-open byte window ``[lo, hi)``."""
        if hi <= lo or not len(self):
            return RunList.empty()
        ends = self.offsets + self.lengths
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(self.offsets, hi, side="left"))
        if i1 <= i0:
            return RunList.empty()
        offs = np.maximum(self.offsets[i0:i1], lo)
        new_ends = np.minimum(ends[i0:i1], hi)
        lens = new_ends - offs
        keep = lens > 0
        return RunList(offs[keep], lens[keep], _validated=True)

    def shift(self, delta: int) -> "RunList":
        """Run list with every offset moved by ``delta`` bytes."""
        if not len(self):
            return self
        if int(self.offsets[0]) + delta < 0:
            raise DataspaceError("shift would produce negative offsets")
        return RunList(self.offsets + delta, self.lengths, _validated=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ext = self.extent()
        return f"<RunList n={len(self)} bytes={self.total_bytes} extent={ext}>"


def flatten_subarray(spec: DatasetSpec, sub: Subarray) -> RunList:
    """Flatten a hyperslab of ``spec`` into absolute file byte runs.

    This reproduces what an ``MPI_Type_create_subarray`` file view turns
    into inside ROMIO: the largest contiguous runs the selection allows,
    in ascending file order.
    """
    sub.validate(spec)
    if sub.empty:
        return RunList.empty()
    shape, start, count = spec.shape, sub.start, sub.count
    ndims = spec.ndims
    # s = first dimension index of the fully-covered suffix.
    s = ndims
    while s > 0 and start[s - 1] == 0 and count[s - 1] == shape[s - 1]:
        s -= 1
    strides = spec.strides
    if s == 0:
        # Entire dataset selected: one run.
        return RunList.single(spec.file_offset, spec.nbytes)
    r = s - 1  # deepest dimension that is not fully covered
    run_elements = count[r] * strides[r]
    base = start[r] * strides[r]
    # Outer dimensions 0..r-1 enumerate the runs in row-major order,
    # which yields strictly ascending offsets.
    contribs = [
        (start[j] + np.arange(count[j], dtype=np.int64)) * strides[j]
        for j in range(r)
    ]
    el_offsets = functools.reduce(
        lambda acc, c: (acc[:, None] + c[None, :]).reshape(-1),
        contribs,
        np.array([base], dtype=np.int64),
    )
    item = spec.itemsize
    offsets = spec.file_offset + el_offsets * item
    lengths = np.full(el_offsets.shape, run_elements * item, dtype=np.int64)
    return RunList(offsets, lengths, _validated=True).coalesce()


def merge_runlists(runlists: Sequence[RunList],
                   allow_overlap: bool = True) -> RunList:
    """Union of several run lists (the ROMIO "global offset list"):
    concatenated, sorted, coalesced.

    Overlapping inputs are legal for reads (several ranks may request
    the same bytes — ROMIO serves the union); pass
    ``allow_overlap=False`` for writes, where overlapping requests are a
    correctness error, and a :class:`DataspaceError` is raised instead.
    """
    non_empty = [rl for rl in runlists if len(rl)]
    if not non_empty:
        return RunList.empty()
    offs = np.concatenate([rl.offsets for rl in non_empty])
    lens = np.concatenate([rl.lengths for rl in non_empty])
    order = np.argsort(offs, kind="stable")
    offs, lens = offs[order], lens[order]
    ends = offs + lens
    if (offs[1:] < ends[:-1]).any():
        if not allow_overlap:
            raise DataspaceError(
                "rank requests overlap; overlapping collective writes "
                "are undefined"
            )
        return _union_sorted(offs, lens)
    return RunList(offs, lens, _validated=True).coalesce()


def _union_sorted(offs: np.ndarray, lens: np.ndarray) -> RunList:
    """Union of possibly-overlapping intervals already sorted by offset."""
    ends = offs + lens
    # Running maximum of the ends; a new union segment starts where the
    # offset exceeds every previous end.
    run_end = np.maximum.accumulate(ends)
    new_seg = np.ones(len(offs), dtype=bool)
    new_seg[1:] = offs[1:] > run_end[:-1]
    seg_idx = np.cumsum(new_seg) - 1
    n_segs = int(seg_idx[-1]) + 1
    seg_offs = offs[new_seg]
    seg_ends = np.zeros(n_segs, dtype=np.int64)
    np.maximum.at(seg_ends, seg_idx, ends)
    return RunList(seg_offs, seg_ends - seg_offs, _validated=True).coalesce()
