"""The paper's "logical map": byte sequences → logical coordinates.

Inside the two-phase layer, an aggregator holds anonymous byte ranges —
the self-describing metadata of the high-level I/O library is gone.
Collective computing needs to run the user's map function on
*meaningful* subsets, so the runtime reconstructs, for every contiguous
byte run in the collective buffer, the hyperslab blocks it corresponds
to in the original dataset (paper §III-B: ``sequence0 = {(start0=0,
length0=10, start1=0, length1=10), ...}``).

A contiguous linear element range decomposes into at most ``2*ndims - 1``
rectangular blocks (partial head rows, a full-slab body, partial tail
rows, recursively).  :func:`blocks_of_linear_range` performs that
decomposition; :func:`reconstruct_run` adds the byte↔element conversion.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import DataspaceError
from .dataset import DatasetSpec


@dataclass(frozen=True)
class LogicalBlock:
    """One rectangular block of dataset coordinates.

    ``start``/``count`` follow the same C-order convention as
    :class:`~repro.dataspace.subarray.Subarray`.
    """

    start: Tuple[int, ...]
    count: Tuple[int, ...]

    @property
    def n_elements(self) -> int:
        """Elements covered by the block."""
        return math.prod(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LogicalBlock(start={self.start}, count={self.count})"


def _decompose(shape: Tuple[int, ...], e0: int, e1: int,
               prefix: Tuple[int, ...], out: List[LogicalBlock]) -> None:
    """Recursive worker: decompose linear range [e0, e1) of an array of
    ``shape`` into blocks, accumulating into ``out`` in ascending order.
    ``prefix`` carries coordinates of already-fixed outer dimensions."""
    if e0 >= e1:
        return
    ndims = len(shape)
    nfixed = len(prefix)
    ones = (1,) * nfixed
    total = math.prod(shape)
    if ndims == 1:
        out.append(LogicalBlock(prefix + (e0,), ones + (e1 - e0,)))
        return
    if e0 == 0 and e1 == total:
        out.append(LogicalBlock(prefix + (0,) * ndims, ones + shape))
        return
    inner_shape = shape[1:]
    slab = total // shape[0]  # elements per index of the outermost dim
    i0, r0 = divmod(e0, slab)
    i1, r1 = divmod(e1, slab)  # exclusive end lands in slice i1 unless r1 == 0
    if i0 == i1 or (i1 == i0 + 1 and r1 == 0):
        # Entire range inside one outer slice.
        _decompose(inner_shape, r0, r0 + (e1 - e0), prefix + (i0,), out)
        return
    body_start = i0
    if r0 != 0:
        # Partial head inside slice i0.
        _decompose(inner_shape, r0, slab, prefix + (i0,), out)
        body_start = i0 + 1
    body_end = i1  # full slices [body_start, body_end)
    if body_end > body_start:
        out.append(LogicalBlock(
            prefix + (body_start,) + (0,) * (ndims - 1),
            ones + (body_end - body_start,) + inner_shape,
        ))
    if r1 != 0:
        # Partial tail inside slice i1.
        _decompose(inner_shape, 0, r1, prefix + (i1,), out)


def blocks_of_linear_range(spec: DatasetSpec, e0: int, e1: int) -> List[LogicalBlock]:
    """Decompose the linear element range ``[e0, e1)`` into hyperslab
    blocks of ``spec``, ascending in file order.

    The blocks partition the range exactly: their element counts sum to
    ``e1 - e0`` and re-linearizing them reproduces the range.
    """
    if not 0 <= e0 <= e1 <= spec.n_elements:
        raise DataspaceError(
            f"element range [{e0}, {e1}) outside [0, {spec.n_elements}]"
        )
    out: List[LogicalBlock] = []
    _decompose(spec.shape, e0, e1, (), out)
    return out


def reconstruct_run(spec: DatasetSpec, abs_offset: int, length: int
                    ) -> List[LogicalBlock]:
    """Logical blocks of one contiguous byte run of the dataset.

    The run must be element-aligned — two-phase I/O never splits an
    element across messages because file domains are derived from the
    flattened (element-aligned) offset lists.
    """
    item = spec.itemsize
    rel = abs_offset - spec.file_offset
    if rel < 0:
        raise DataspaceError(f"byte offset {abs_offset} before dataset start")
    if rel % item or length % item:
        raise DataspaceError(
            f"run ({abs_offset}, {length}) not aligned to {item}-byte elements"
        )
    e0 = rel // item
    e1 = e0 + length // item
    return blocks_of_linear_range(spec, e0, e1)


def blocks_total_elements(blocks: List[LogicalBlock]) -> int:
    """Sum of elements over ``blocks``."""
    return sum(b.n_elements for b in blocks)
