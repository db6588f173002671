"""Determinism and cache-equivalence guarantees.

The performance work (block cache, plan cache, plan memo, zero-copy
reads) must be invisible to results: every figure row is a function of
the simulated event order alone, and each cache is a pure memoization.
These tests pin that contract.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import ObjectIO, SUM_OP, object_get
from repro.dataspace import DatasetSpec, block_partition, full_selection
from repro.experiments import fig09_ratio_speedup
from repro.flags import override
from repro.io import AccessRequest, CollectiveHints, twophase
from repro.mpi import mpi_run
from repro.obs import metrics
from repro.pfs.datasource import (BlockCache, ProceduralSource,
                                  default_field)
from repro.sim import Kernel
from repro.workloads import climate_field

NPROCS = 4


def rows_of(result):
    return [list(map(repr, row)) for row in result.rows]


def run_fig09():
    return fig09_ratio_speedup.run(per_rank_mib=0.5,
                                   ratios=((5, 1), (1, 1), (1, 5)))


def test_fig09_twice_bit_identical():
    a, b = run_fig09(), run_fig09()
    assert rows_of(a) == rows_of(b)
    assert [list(map(repr, s)) for s in a.settings] == \
           [list(map(repr, s)) for s in b.settings]


def _memo_machine():
    machine = Machine(Kernel(), small_test_machine(nodes=2,
                                                   cores_per_node=4))
    spec = DatasetSpec((8, 16, 16), np.float64, name="memo")
    file = machine.fs.create_procedural_file("memo.nc", spec.n_elements)
    parts = block_partition(full_selection(spec), NPROCS, axis=1)
    return machine, spec, file, parts


def test_plan_memo_hit_equals_fresh_derivation():
    """A repeated make_plan on one communicator is served from its plan
    memo, and the memoized plan equals a fresh derive_plan over the
    same exchanged lists."""
    machine, spec, file, parts = _memo_machine()
    hints = CollectiveHints(cb_buffer_size=1024)

    def body(ctx):
        runs = AccessRequest.from_subarray(spec, parts[ctx.rank]).runs
        first = yield from twophase.make_plan(ctx, runs, file, hints)
        second = yield from twophase.make_plan(ctx, runs, file, hints)
        fresh = twophase.derive_plan(ctx.machine, ctx.size,
                                     second.all_runs, file, hints)
        return first, second, fresh

    for first, second, fresh in mpi_run(machine, NPROCS, body):
        assert second is first  # the repeat hit the memo
        assert second is not fresh
        assert second.all_runs == fresh.all_runs
        assert second.aggregators == fresh.aggregators
        assert second.domains == fresh.domains
        assert second.windows == fresh.windows
        assert np.array_equal(second.membership, fresh.membership)


def _repeated_pipelines(clear_memo):
    """Three rounds of both pipelines (two-phase read then compute, and
    collective computing) on one job; ``clear_memo`` empties the
    communicator's plan memo before every call."""
    machine, spec, file, parts = _memo_machine()

    def body(ctx):
        out = []
        for _round in range(3):
            for block in (True, False):
                if clear_memo:
                    twophase._plan_cache_for(ctx.comm.comm).clear()
                oio = ObjectIO(spec, parts[ctx.rank], SUM_OP, block=block)
                result = yield from object_get(ctx, file, oio)
                out.append(result.global_result)
        return out

    with override(obs=True):
        results = mpi_run(machine, NPROCS, body)
        counters = metrics.current().snapshot()["counters"]
    return (results, machine.kernel.now, counters["mpi.messages"],
            counters["mpi.wire_bytes"])


def test_plan_memo_is_pure_memoization(monkeypatch):
    """Identical results, simulated time, message count and wire bytes
    whether repeated calls hit the plan memo or re-derive every plan —
    the memo skips derivation but always simulates the offset
    exchange."""
    derived = []
    real_derive = twophase.derive_plan

    def counting_derive(*args, **kwargs):
        derived.append(1)
        return real_derive(*args, **kwargs)

    monkeypatch.setattr(twophase, "derive_plan", counting_derive)
    memoized = _repeated_pipelines(clear_memo=False)
    memo_derivations = len(derived)
    derived.clear()
    rederived = _repeated_pipelines(clear_memo=True)
    assert memo_derivations < len(derived)  # the plain run's repeats hit
    assert memoized == rederived


def field(idx):
    return np.sin(idx.astype(np.float64) * 0.013) * 7.5


FIELDS = pytest.mark.parametrize("func", [field, climate_field,
                                          default_field])
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@FIELDS
@DTYPES
def test_block_cache_reads_byte_identical(dtype, func):
    n = 10_000
    item = np.dtype(dtype).itemsize
    cached = ProceduralSource(n, dtype, func, block_elements=256,
                              cache=BlockCache())
    raw = ProceduralSource(n, dtype, func, block_elements=256, cache=False)
    # Offsets crossing block boundaries, misaligned starts/ends, full
    # and empty reads.
    probes = [(0, 1), (0, item), (3, 13), (255 * item, 4 * item),
              (256 * item - 1, 2), (511 * item + 5, 4096),
              (n * item - 7, 7), (1234, 0), (0, n * item)]
    for offset, nbytes in probes:
        assert bytes(cached.read(offset, nbytes)) == \
               bytes(raw.read(offset, nbytes)), (offset, nbytes)
    # Repeat now that every touched block is warm in the cache.
    for offset, nbytes in probes:
        assert bytes(cached.read(offset, nbytes)) == \
               bytes(raw.read(offset, nbytes)), (offset, nbytes)


@FIELDS
@DTYPES
def test_block_cache_values_byte_identical(dtype, func):
    cached = ProceduralSource(5_000, dtype, func, block_elements=128,
                              cache=BlockCache())
    raw = ProceduralSource(5_000, dtype, func, block_elements=128,
                           cache=False)
    for first, count in [(0, 1), (0, 128), (100, 300), (127, 2),
                         (4_999, 1), (0, 5_000)]:
        np.testing.assert_array_equal(np.asarray(cached.values(first, count)),
                                      np.asarray(raw.values(first, count)))
