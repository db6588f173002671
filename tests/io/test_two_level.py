"""Two-level (node-aware) two-phase I/O: bit-identity with the
one-level path across seeds × aggregators_per_node × reduce modes,
plus the intra-/inter-node byte-accounting invariants.

The two-level protocol stages the offset exchange and every shuffle
message through one leader per node; by construction none of that may
change a single data byte — only wire routing and accounting.  These
tests sweep randomized regions and hints and compare the read buffers
and written file bytes of the two protocols exactly.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.flags import override
from repro.io import AccessRequest, CollectiveHints, collective_read, \
    collective_write
from repro.mpi import mpi_run
from repro.obs import metrics
from repro.pfs import ArraySource
from repro.sim import Kernel

DSPEC = DatasetSpec((10, 12, 8), np.float64, name="T")


def field(idx):
    return np.sin(idx.astype(np.float64) * 0.413) + 1e-3 * idx


def _machine(cores=4):
    return Machine(Kernel(), small_test_machine(nodes=2,
                                                cores_per_node=cores,
                                                n_osts=3, stripe_size=512))


def _random_config(seed):
    rng = np.random.default_rng(seed)
    start = tuple(int(rng.integers(0, s - 1)) for s in DSPEC.shape)
    count = tuple(int(rng.integers(1, s - st + 1))
                  for s, st in zip(DSPEC.shape, start))
    nprocs = int(rng.integers(2, 9))
    axis = int(rng.integers(0, 3))
    cb = int(rng.choice([300, 777, 2048, 1 << 20]))
    return Subarray(start, count), nprocs, axis, cb


def _read_job(gsub, nprocs, axis, hints):
    m = _machine()
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    parts = block_partition(gsub, nprocs, axis=axis)

    def main(ctx):
        request = AccessRequest.from_subarray(DSPEC, parts[ctx.rank])
        buf = yield from collective_read(ctx, f, request, hints=hints)
        return bytes(buf)

    return mpi_run(m, nprocs, main)


def _write_job(gsub, nprocs, axis, hints):
    m = _machine()
    parts = block_partition(gsub, nprocs, axis=axis)
    out = m.fs.create_file(
        "out.nc", ArraySource(np.zeros(DSPEC.n_elements,
                                       dtype=DSPEC.dtype)))

    def main(ctx):
        request = AccessRequest.from_subarray(DSPEC, parts[ctx.rank])
        idx = np.asarray(request.runs.offsets) // DSPEC.itemsize
        data = np.concatenate([
            field(np.arange(o // DSPEC.itemsize,
                            o // DSPEC.itemsize + n // DSPEC.itemsize))
            for o, n in request.runs
        ]) if len(request.runs) else np.empty(0, dtype=DSPEC.dtype)
        yield from collective_write(ctx, out, request, data)
        return idx.size

    mpi_run(m, nprocs, main)
    return out.source._bytes.copy()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_node", [1, 2])
def test_two_level_read_bit_identical(seed, per_node):
    gsub, nprocs, axis, cb = _random_config(seed)
    # per_node=2 needs at least two ranks on every occupied node (the
    # thin-node case raises by design — covered in test_aggregation).
    nprocs = max(nprocs, 4) if per_node == 2 else nprocs
    with override(check=True):
        one = _read_job(gsub, nprocs, axis,
                        CollectiveHints(cb_buffer_size=cb,
                                        aggregators_per_node=per_node))
        two = _read_job(gsub, nprocs, axis,
                        CollectiveHints(cb_buffer_size=cb,
                                        aggregators_per_node=per_node,
                                        two_level=True))
    assert one == two


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_node", [1, 2])
def test_two_level_write_bit_identical(seed, per_node):
    gsub, nprocs, axis, cb = _random_config(100 + seed)
    nprocs = max(nprocs, 4) if per_node == 2 else nprocs
    with override(check=True):
        one = _write_job(gsub, nprocs, axis,
                         CollectiveHints(cb_buffer_size=cb,
                                         aggregators_per_node=per_node))
        two = _write_job(gsub, nprocs, axis,
                         CollectiveHints(cb_buffer_size=cb,
                                         aggregators_per_node=per_node,
                                         two_level=True))
    assert np.array_equal(one, two)


@pytest.mark.parametrize("two_level", [False, True])
def test_shuffle_byte_split_sums_to_total(two_level):
    """io.intranode_bytes + io.internode_bytes == io.shuffle_bytes, and
    each closed form equals its measured twin — the invariant
    ``python -m repro.report`` cross-checks on every manifest."""
    gsub = Subarray((0, 0, 0), (10, 12, 8))
    with override(obs=True):
        _read_job(gsub, 8, 1, CollectiveHints(cb_buffer_size=1024,
                                              two_level=two_level))
        counters = metrics.current().snapshot()["counters"]
    assert counters["io.shuffle_bytes"] > 0
    for base in ("io.shuffle_bytes", "io.intranode_bytes",
                 "io.internode_bytes"):
        assert counters.get(base, 0) == counters.get(f"{base}_measured", 0)
    assert (counters.get("io.intranode_bytes", 0)
            + counters.get("io.internode_bytes", 0)
            == counters["io.shuffle_bytes"])


def test_two_level_cuts_offset_exchange_internode_bytes():
    """The leaders-only offset exchange must move fewer cross-node
    bytes than the flat allgather (the shuffle itself moves the same
    data either way; framing differences are small next to this)."""
    gsub = Subarray((0, 0, 0), (10, 12, 8))

    def wire(two_level):
        m = _machine(cores=8)
        f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                        dtype=np.float64, func=field,
                                        stripe_size=512)
        parts = block_partition(gsub, 16, axis=1)
        hints = CollectiveHints(cb_buffer_size=4096, two_level=two_level)

        def main(ctx):
            request = AccessRequest.from_subarray(DSPEC, parts[ctx.rank])
            buf = yield from collective_read(ctx, f, request, hints=hints)
            return bytes(buf)

        res = mpi_run(m, 16, main)
        return res, m.network.inter_node_bytes

    one, wire_one = wire(False)
    two, wire_two = wire(True)
    assert one == two
    assert wire_two < wire_one
