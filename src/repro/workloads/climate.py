"""Synthetic climate workloads (the paper's benchmark, §IV-B).

The paper benchmarks collective computing with "a synthetic climate
dataset, which has size of 800 GBs", accessing 3-D/4-D subsets of one
variable (e.g. temperature) and simulating the computation "with
different operations, e.g., sum, max, and average".

Builders here produce scaled instances of two access shapes:

* :func:`interleaved_workload` — the decomposition splits an *inner*
  dimension, so every collective-buffer window holds pieces for ranks
  on every node and the shuffle is genuinely all-to-all (the pattern
  collective I/O exists for).
* :func:`sparse_subset_workload` — the Figure-1 shape: a small 4-D
  subset of a much larger dataset, generating large numbers of short
  non-contiguous runs (data sieving territory).

A ``scale`` factor shrinks byte counts while keeping the process count,
dimensionality, aggregator ratio and interleaving intact, so timing
*ratios* survive scaling (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..dataspace import (DatasetSpec, Subarray, block_partition,
                         full_selection)
from ..errors import DataspaceError


@dataclass(frozen=True)
class Workload:
    """A dataset + per-rank hyperslabs.

    Attributes
    ----------
    dspec:
        The variable being analysed.
    gsub:
        The global selection the job covers.
    parts:
        Per-rank selections (``parts[r]`` belongs to rank ``r``).
    """

    dspec: DatasetSpec
    gsub: Subarray
    parts: Tuple[Subarray, ...]

    @property
    def nprocs(self) -> int:
        """Number of ranks the workload is decomposed for."""
        return len(self.parts)

    @property
    def total_bytes(self) -> int:
        """Bytes the job reads in total."""
        return self.gsub.n_elements * self.dspec.itemsize

    @property
    def per_rank_bytes(self) -> int:
        """Average bytes per rank."""
        return self.total_bytes // max(self.nprocs, 1)


#: Periods, in elements, of the climate field's seasonal and weather
#: cycles: powers of two, so a phase reduces exactly in integers.
SEASON_PERIOD = 1 << 19
WEATHER_PERIOD = 1 << 11
#: Odd multiplier (2^64 over the golden ratio) of the noise hash.
NOISE_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def climate_field(idx: np.ndarray) -> np.ndarray:
    """A temperature-like float32 field in [264, 312) kelvin.

    ``287 + 15 season + 8 weather + 2 u``: two sinusoids of periods
    :data:`SEASON_PERIOD` and :data:`WEATHER_PERIOD` elements, and
    noise ``u`` in [0, 1) from the top 24 bits of a 64-bit
    multiplicative hash of the whole index.  Every element depends on
    its own index only, so any chunking or striding of ``idx`` gives
    the same values.  Simulated times and bytes never read values, so
    the field is built in float32 and in place: besides the result, one
    int64 and one float32 buffer of ``idx``'s length.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = np.full(idx.shape, 287.0, dtype=np.float32)
    ints = np.empty(idx.shape, dtype=np.int64)
    term = np.empty(idx.shape, dtype=np.float32)
    for period, amplitude in ((SEASON_PERIOD, 15.0), (WEATHER_PERIOD, 8.0)):
        np.bitwise_and(idx, period - 1, out=ints)
        term[...] = ints
        term *= np.float32(2.0 * math.pi / period)
        np.sin(term, out=term)
        term *= np.float32(amplitude)
        out += term
    bits = ints.view(np.uint64)
    np.multiply(idx.view(np.uint64), NOISE_MULTIPLIER, out=bits)
    bits >>= np.uint64(40)
    term[...] = bits  # below 2^24, so exact in float32
    term *= np.float32(2.0 ** -23)
    out += term
    return out


def interleaved_workload(nprocs: int, *, per_rank_bytes: int,
                         dtype=np.float64, time_steps: Optional[int] = 24,
                         plane: int = 32, cols_per_rank: Optional[int] = None,
                         name: str = "temperature") -> Workload:
    """A 4-D variable ``(time, column, y, x)`` split along the *column*
    axis: each rank owns ``columns/nprocs`` columns of every time step,
    so rank data interleaves throughout the file.

    ``per_rank_bytes`` fixes each rank's request size (weak scaling:
    total grows with ``nprocs``).  Exactly one of the two shape knobs
    absorbs the size: with ``time_steps`` given, the column count per
    rank is derived (the default); with ``cols_per_rank`` given, the
    time extent is derived instead — which keeps the *granularity* of
    the non-contiguity (the per-run size) independent of the total
    volume, important when sweeping workload sizes.
    """
    if per_rank_bytes < dtype_size(dtype):
        raise DataspaceError(f"per_rank_bytes {per_rank_bytes} too small")
    plane_elements = plane * plane
    item = dtype_size(dtype)
    if cols_per_rank is not None:
        if cols_per_rank < 1:
            raise DataspaceError(f"cols_per_rank must be >= 1")
        time_steps = max(1, round(
            per_rank_bytes / (cols_per_rank * plane_elements * item)))
    else:
        if time_steps is None or time_steps < 1:
            raise DataspaceError("need time_steps or cols_per_rank")
        cols_per_rank = max(1, round(
            per_rank_bytes / (time_steps * plane_elements * item)))
    shape = (time_steps, nprocs * cols_per_rank, plane, plane)
    dspec = DatasetSpec(shape, dtype, name=name)
    gsub = full_selection(dspec)
    parts = block_partition(gsub, nprocs, axis=1)
    return Workload(dspec, gsub, tuple(parts))


def sparse_subset_workload(nprocs: int, *, scale: float = 1.0,
                           dtype=np.float32, name: str = "temperature"
                           ) -> Workload:
    """The Figure-1 access shape, scaled.

    Paper (fast→slowest): dataset 1024 x 1024 x 100 x 1024, subset
    100 x 100 x 10 x 720, per process 100 x 100 x 10 x 10.  In C order
    (slowest first) that is a dataset ``(1024, 100, 1024, 1024)`` with
    subset ``(720, 10, 100, 100)`` split along axis 0.  ``scale``
    shrinks the two fastest dataset dimensions (keeping the subset's
    sparseness) and the subset's slowest extent proportionally to the
    rank count.
    """
    if not 0 < scale <= 1.0:
        raise DataspaceError(f"scale must be in (0, 1], got {scale}")
    s = math.sqrt(scale)
    d_fast = max(128, int(1024 * s))
    d_mid = max(128, int(1024 * s))
    slow = max(nprocs, int(720 * min(1.0, scale * 8)))
    slow -= slow % nprocs  # even decomposition
    if slow == 0:
        slow = nprocs
    shape = (max(slow + 4, 1024 // 4), 100, d_mid, d_fast)
    sub_count = (slow, 10, min(100, d_mid // 2), min(100, d_fast // 2))
    sub_start = (2, 0, d_mid // 4, d_fast // 4)
    dspec = DatasetSpec(shape, dtype, name=name)
    gsub = Subarray(sub_start, sub_count)
    gsub.validate(dspec)
    parts = block_partition(gsub, nprocs, axis=0)
    return Workload(dspec, gsub, tuple(parts))


def dtype_size(dtype) -> int:
    """Bytes per element of ``dtype``."""
    return np.dtype(dtype).itemsize


def ratio_ops_per_element(ratio: float, io_seconds: float, nprocs: int,
                          total_elements: int, core_element_rate: float
                          ) -> float:
    """Operator CPU weight that makes the *traditional* computation
    stage take ``ratio x io_seconds`` (paper Figure 9's knob).

    In the traditional path each rank computes its ``total/nprocs``
    share on one core, so
    ``t_comp = (total/nprocs) * ops / rate  =>  ops = ratio * io *
    rate * nprocs / total``.
    """
    if total_elements <= 0 or io_seconds < 0:
        raise DataspaceError("need positive element count and io time")
    return ratio * io_seconds * core_element_rate * nprocs / total_elements
