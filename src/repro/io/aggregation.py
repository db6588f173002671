"""Aggregator selection and file-domain partitioning (ROMIO-style).

Two-phase I/O designates a subset of ranks as *aggregators*; the byte
range covered by the job's combined request is divided into contiguous
*file domains*, one per aggregator.  This module reproduces ROMIO's
even partitioning, with optional Lustre-style stripe alignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..cluster import Machine
from ..dataspace import RunList
from ..errors import IOLayerError


def select_aggregators(machine: Machine, nprocs: int,
                       per_node: int = 1) -> List[int]:
    """Pick aggregator ranks: the first ``per_node`` ranks of each node.

    Mirrors ROMIO's ``cb_config_list`` default of spreading aggregators
    across nodes.  Every *occupied* node must host at least ``per_node``
    ranks: silently truncating (the pre-fix behaviour) would hand that
    node a thinner aggregator set than the hints promised and skew the
    file-domain partition, so a thin run raises :class:`IOLayerError`
    naming the node instead.  Nodes hosting no ranks at all are simply
    skipped (a small job on a large machine is fine).
    """
    if per_node < 1:
        raise IOLayerError(f"per_node must be >= 1, got {per_node}")
    aggregators: List[int] = []
    for node in range(machine.spec.nodes):
        ranks = machine.ranks_on_node(node, nprocs)
        if ranks and len(ranks) < per_node:
            raise IOLayerError(
                f"aggregators_per_node={per_node} but node {node} hosts "
                f"only {len(ranks)} rank(s); lower the hint or run more "
                f"ranks per node"
            )
        aggregators.extend(ranks[:per_node])
    if not aggregators:
        raise IOLayerError("no aggregators selected")
    return sorted(aggregators)


def snap_down(pos: int, grid: Optional[Tuple[int, int]]) -> int:
    """Round ``pos`` down onto an alignment grid ``(base, step)``.

    Collective computing needs windows that never split an element
    across iterations (the map operates on whole values); the grid is
    ``(dataset file_offset, itemsize)``.  ``None`` disables snapping.
    """
    if grid is None:
        return pos
    base, step = grid
    if step <= 1:
        return pos
    if pos <= base:
        return pos
    return base + ((pos - base) // step) * step


def partition_file_domains(extent: Tuple[int, int], n_aggregators: int,
                           stripe_size: Optional[int] = None,
                           grid: Optional[Tuple[int, int]] = None
                           ) -> List[Tuple[int, int]]:
    """Split the byte range ``extent`` into ``n_aggregators`` contiguous
    domains of near-equal size.

    With ``stripe_size`` given, domain boundaries are rounded up to
    stripe multiples (Lustre-aware ROMIO), so no two aggregators touch
    the same stripe.  Domains may be empty (``lo == hi``) when there are
    more aggregators than stripes.
    """
    lo, hi = extent
    if hi < lo:
        raise IOLayerError(f"invalid extent {extent}")
    if n_aggregators < 1:
        raise IOLayerError(f"need >= 1 aggregator, got {n_aggregators}")
    total = hi - lo
    if total == 0:
        return [(lo, lo)] * n_aggregators
    if stripe_size:
        # Work in whole stripes relative to the first stripe boundary
        # at or below `lo`.
        base = (lo // stripe_size) * stripe_size
        nstripes = (hi - base + stripe_size - 1) // stripe_size
        per, extra = divmod(nstripes, n_aggregators)
        domains: List[Tuple[int, int]] = []
        pos = base
        for a in range(n_aggregators):
            mine = per + (1 if a < extra else 0)
            d_lo = max(snap_down(pos, grid), lo)
            pos += mine * stripe_size
            d_hi = min(snap_down(pos, grid) if a < n_aggregators - 1 else pos,
                       hi)
            domains.append((d_lo, max(d_lo, d_hi)))
        return domains
    per, extra = divmod(total, n_aggregators)
    domains = []
    pos = lo
    for a in range(n_aggregators):
        mine = per + (1 if a < extra else 0)
        nxt = pos + mine
        hi_a = hi if a == n_aggregators - 1 else snap_down(nxt, grid)
        domains.append((pos, max(pos, hi_a)))
        pos = max(pos, hi_a)
    return domains


def iteration_windows(domain: Tuple[int, int], runs: RunList,
                      cb_buffer_size: int,
                      grid: Optional[Tuple[int, int]] = None
                      ) -> List[Tuple[int, int]]:
    """The per-iteration byte windows an aggregator serves.

    ROMIO walks the *requested* portion of the domain in collective-
    buffer-size steps: windows start at the first needed byte and stop
    at the last, and windows containing no requested bytes are skipped.
    With ``grid`` given, interior window boundaries are snapped down to
    the element grid so no element is ever split across iterations
    (required by the collective-computing map).
    Returns ``[(win_lo, win_hi), ...]`` in ascending order.
    """
    if cb_buffer_size < 1:
        raise IOLayerError(f"cb_buffer_size must be >= 1, got {cb_buffer_size}")
    if grid is not None and cb_buffer_size < grid[1]:
        raise IOLayerError(
            f"cb_buffer_size {cb_buffer_size} smaller than one element "
            f"({grid[1]} bytes)"
        )
    d_lo, d_hi = domain
    mine = runs.clip(d_lo, d_hi)
    ext = mine.extent()
    if ext is None:
        return []
    lo, hi = ext
    run_ends = mine.offsets + mine.lengths
    windows = []
    pos = lo
    while pos < hi:
        win_hi = snap_down(min(pos + cb_buffer_size, hi), grid)
        if win_hi <= pos or win_hi >= hi:
            win_hi = min(pos + cb_buffer_size, hi)
        # Window is non-empty iff some run intersects [pos, win_hi) —
        # same test clip() does, without materializing the clipped list.
        if (np.searchsorted(run_ends, pos, side="right")
                < np.searchsorted(mine.offsets, win_hi, side="left")):
            windows.append((pos, win_hi))
        pos = win_hi
    return windows
