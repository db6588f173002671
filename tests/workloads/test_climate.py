"""Tests for climate workload builders."""

import numpy as np
import pytest

from repro.dataspace import partition_covers
from repro.errors import DataspaceError
from repro.workloads import (climate_field, interleaved_workload,
                             ratio_ops_per_element, sparse_subset_workload)


def test_interleaved_workload_shape_and_tiling():
    w = interleaved_workload(8, per_rank_bytes=2 ** 16)
    assert w.nprocs == 8
    assert partition_covers(w.gsub, list(w.parts))
    # Split along axis 1 (interleaving).
    starts = {p.start[1] for p in w.parts}
    assert len(starts) == 8
    assert all(p.start[0] == 0 for p in w.parts)


def test_interleaved_workload_per_rank_size_close():
    target = 1 << 20
    w = interleaved_workload(4, per_rank_bytes=target)
    assert w.per_rank_bytes == pytest.approx(target, rel=0.5)


def test_interleaved_workload_validation():
    with pytest.raises(DataspaceError):
        interleaved_workload(2, per_rank_bytes=1)


def test_sparse_subset_workload():
    w = sparse_subset_workload(8, scale=0.02)
    assert w.nprocs == 8
    assert partition_covers(w.gsub, list(w.parts))
    assert w.dspec.ndims == 4
    # Sparse: the subset covers a small fraction of the dataset.
    assert w.gsub.n_elements < w.dspec.n_elements / 4
    with pytest.raises(DataspaceError):
        sparse_subset_workload(8, scale=0.0)


def test_climate_field_deterministic_and_physical():
    idx = np.arange(10000, dtype=np.int64)
    a = climate_field(idx)
    b = climate_field(idx)
    assert np.array_equal(a, b)
    assert 250.0 < a.mean() < 320.0


# Values are never pinned: vectorised float32 sin may differ in the last
# bit between CPUs.

def test_climate_field_is_float32_in_range():
    # Two whole seasonal periods, here and in a far seed's region.
    for first in (0, 7 << 30):
        a = climate_field(np.arange(first, first + (1 << 20), dtype=np.int64))
        assert a.dtype == np.float32
        assert a.min() >= 264.0 and a.max() < 312.0


def test_climate_field_chunk_and_stride_invariant():
    idx = np.arange(5 << 30, (5 << 30) + 100_000, dtype=np.int64)
    whole = climate_field(idx)
    chunked = np.concatenate([climate_field(idx[lo:lo + 12_345])
                              for lo in range(0, idx.size, 12_345)])
    assert np.array_equal(chunked, whole)
    assert np.array_equal(climate_field(idx[::3]), whole[::3])


def test_climate_field_seed_regions_differ():
    # perfbench reads seed k's data at k * 2^30 elements; the periods
    # divide 2^30, so only the noise, which hashes the whole index,
    # tells the regions apart.
    idx = np.arange(100_000, dtype=np.int64)
    sums = {float(climate_field(idx + (k << 30)).sum(dtype=np.float64))
            for k in range(8)}
    assert len(sums) == 8


def test_ratio_ops_per_element():
    # ratio 2 at io=10s, 4 ranks, 100 elements, rate 1e3:
    # per-rank compute (100/4)*ops/1e3 must equal 20s -> ops = 800.
    ops = ratio_ops_per_element(2.0, 10.0, 4, 100, 1e3)
    assert ops == pytest.approx(800.0)
    with pytest.raises(DataspaceError):
        ratio_ops_per_element(1.0, 1.0, 4, 0, 1e3)
