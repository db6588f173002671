"""Rank decompositions: splitting a global selection across processes.

The paper's workloads assign each process a block of the slowest varying
dimension of a shared subset (e.g. Fig 1: subset 720 slices wide, 72
processes, 10 slices each).  :func:`block_partition` reproduces that;
:func:`grid_partition` generalizes to a Cartesian process grid.
"""

from __future__ import annotations

import math

from typing import List, Sequence, Tuple

from ..errors import DataspaceError
from .subarray import Subarray


def block_partition(sub: Subarray, nprocs: int, axis: int = 0) -> List[Subarray]:
    """Split ``sub`` into ``nprocs`` near-equal blocks along ``axis``.

    Extents that do not divide evenly give the first ``remainder`` ranks
    one extra slice (MPI_Dims-style balanced blocks).  Ranks that would
    receive zero slices get an empty selection (count 0 on ``axis``).
    """
    if nprocs < 1:
        raise DataspaceError(f"need >= 1 process, got {nprocs}")
    if not 0 <= axis < sub.ndims:
        raise DataspaceError(f"axis {axis} outside 0..{sub.ndims - 1}")
    extent = sub.count[axis]
    per, extra = divmod(extent, nprocs)
    parts: List[Subarray] = []
    pos = sub.start[axis]
    for rank in range(nprocs):
        mine = per + (1 if rank < extra else 0)
        start = list(sub.start)
        count = list(sub.count)
        start[axis] = pos
        count[axis] = mine
        parts.append(Subarray(tuple(start), tuple(count)))
        pos += mine
    return parts


def grid_partition(sub: Subarray, grid: Sequence[int]) -> List[Subarray]:
    """Split ``sub`` over a Cartesian process grid.

    ``grid`` gives the process counts per dimension; its product is the
    total rank count and its length must equal ``sub.ndims``.  Rank order
    is row-major over the grid.
    """
    if len(grid) != sub.ndims:
        raise DataspaceError(
            f"grid has {len(grid)} dims, selection has {sub.ndims}"
        )
    if any(g < 1 for g in grid):
        raise DataspaceError(f"non-positive grid extent in {tuple(grid)}")
    per_dim: List[List[Tuple[int, int]]] = []
    for d, g in enumerate(grid):
        extent = sub.count[d]
        per, extra = divmod(extent, g)
        spans = []
        pos = sub.start[d]
        for i in range(g):
            mine = per + (1 if i < extra else 0)
            spans.append((pos, mine))
            pos += mine
        per_dim.append(spans)
    parts: List[Subarray] = []
    for flat in range(math.prod(grid)):
        idx = []
        rem = flat
        for g in reversed(grid):
            idx.append(rem % g)
            rem //= g
        idx.reverse()
        start = tuple(per_dim[d][idx[d]][0] for d in range(sub.ndims))
        count = tuple(per_dim[d][idx[d]][1] for d in range(sub.ndims))
        parts.append(Subarray(start, count))
    return parts


def partition_covers(sub: Subarray, parts: Sequence[Subarray]) -> bool:
    """Sanity check: the parts tile ``sub`` exactly (element counts add up
    and all parts lie inside ``sub``).  Used by tests and assertions."""
    total = sum(p.n_elements for p in parts)
    if total != sub.n_elements:
        return False
    for p in parts:
        if p.empty:
            continue
        inter = p.intersect(sub)
        if inter is None or inter.n_elements != p.n_elements:
            return False
    return True
