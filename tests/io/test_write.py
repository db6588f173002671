"""Tests for collective writes."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.errors import IOLayerError
from repro.io import (AccessRequest, CollectiveHints, collective_read,
                      collective_write)
from repro.mpi import mpi_run
from repro.pfs import ArraySource
from repro.sim import Kernel

DSPEC = DatasetSpec((6, 8, 10), np.float64, name="w")


def build():
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      stripe_size=128))
    src = ArraySource(np.zeros(DSPEC.n_elements, dtype=np.float64))
    f = m.fs.create_file("w.nc", src, stripe_size=128)
    return k, m, f, src


def rank_payload(sub: Subarray) -> np.ndarray:
    idx = np.arange(DSPEC.n_elements, dtype=np.int64).reshape(DSPEC.shape)
    sl = tuple(slice(s, s + c) for s, c in zip(sub.start, sub.count))
    return idx[sl].astype(np.float64)


def test_write_then_readback():
    k, m, f, src = build()
    gsub = Subarray((1, 1, 1), (4, 6, 8))
    parts = block_partition(gsub, 6, axis=1)

    def main(ctx):
        sub = parts[ctx.rank]
        req = AccessRequest.from_subarray(DSPEC, sub)
        yield from collective_write(ctx, f, req, rank_payload(sub),
                                    CollectiveHints(cb_buffer_size=256))
        return None

    mpi_run(m, 6, main)
    # Read back the global region directly from the source.
    whole = src.as_array().reshape(DSPEC.shape)
    expect = np.zeros(DSPEC.shape)
    sl = tuple(slice(s, s + c) for s, c in zip(gsub.start, gsub.count))
    expect[sl] = rank_payload(gsub)
    assert np.array_equal(whole, expect)


def test_collective_write_then_collective_read():
    k, m, f, src = build()
    gsub = Subarray((0, 2, 0), (6, 4, 10))
    parts = block_partition(gsub, 4, axis=0)

    def main(ctx):
        sub = parts[ctx.rank]
        req = AccessRequest.from_subarray(DSPEC, sub)
        yield from collective_write(ctx, f, req, rank_payload(sub))
        buf = yield from collective_read(ctx, f, req)
        return req.as_array(buf)

    res = mpi_run(m, 4, main)
    for r in range(4):
        assert np.array_equal(res[r], rank_payload(parts[r]))


def test_collective_write_size_mismatch_rejected():
    k, m, f, src = build()

    def main(ctx):
        req = AccessRequest.from_subarray(DSPEC, Subarray((0, 0, 0), (1, 1, 4)))
        with pytest.raises(IOLayerError):
            yield from collective_write(ctx, f, req, np.zeros(3))
        yield ctx.kernel.timeout(0)
        return None

    mpi_run(m, 1, main)
