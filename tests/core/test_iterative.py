"""Tests for iterative collective computing (plan caching, sweeps)."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import (IterativeAnalysis, ObjectIO, SUM_OP,
                        sliding_windows, translation_delta)
from repro.core.iterative import IterativeStats
from repro.dataspace import (DatasetSpec, RunList, Subarray,
                             block_partition, flatten_subarray)
from repro.errors import CollectiveComputingError
from repro.io import CollectiveHints
from repro.mpi import mpi_run
from repro.sim import Kernel

DSPEC = DatasetSpec((32, 8, 16), np.float64, name="T")


def field(idx):
    return idx.astype(np.float64) * 0.5


def truth_sum(sub: Subarray) -> float:
    idx = np.arange(DSPEC.n_elements, dtype=np.int64).reshape(DSPEC.shape)
    sl = tuple(slice(s, s + c) for s, c in zip(sub.start, sub.count))
    return float(field(idx[sl].reshape(-1)).sum())


def build():
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    return k, m, f


def test_translation_delta():
    a = RunList.from_pairs([(0, 8), (32, 8)])
    b = RunList.from_pairs([(64, 8), (96, 8)])
    c = RunList.from_pairs([(64, 8), (100, 8)])
    d = RunList.from_pairs([(64, 16), (96, 8)])
    assert translation_delta(a, b) == 64
    assert translation_delta(a, c) is None
    assert translation_delta(a, d) is None
    assert translation_delta(RunList.empty(), RunList.empty()) == 0
    assert translation_delta(a, RunList.empty()) is None


def test_sliding_windows():
    base = Subarray((0, 2, 0), (4, 4, 16))
    wins = sliding_windows(base, axis=0, steps=3, stride=4)
    assert [w.start[0] for w in wins] == [0, 4, 8]
    assert all(w.count == base.count for w in wins)


def test_shift_plan_translates_everything():
    # Build a tiny plan through a real run, then shift it.
    k, m, f = build()
    captured = {}

    def main(ctx):
        from repro.io.twophase import make_plan
        runs = flatten_subarray(DSPEC, Subarray((0, 0, 0), (4, 8, 16)))
        plan = yield from make_plan(ctx, runs, f,
                                    CollectiveHints(cb_buffer_size=1024),
                                    (0, 8))
        if ctx.rank == 0:
            captured["plan"] = plan
        return None

    mpi_run(m, 4, main)
    plan = captured["plan"]
    shifted = plan.shifted(4096)
    assert shifted.aggregators == plan.aggregators
    assert shifted.domains[0][0] == plan.domains[0][0] + 4096
    for ws, wo in zip(shifted.windows, plan.windows):
        assert all(a == (b[0] + 4096, b[1] + 4096) for a, b in zip(ws, wo))
    assert shifted.all_runs[0].offsets[0] == plan.all_runs[0].offsets[0] + 4096


def test_iterative_sweep_reuses_plans_and_is_correct():
    k, m, f = build()
    nprocs = 4
    steps = 6
    stats_holder = {}

    def main(ctx):
        base_global = Subarray((0, 0, 0), (4, 8, 16))
        parts = block_partition(base_global, ctx.size, axis=1)
        oio = ObjectIO(DSPEC, parts[ctx.rank], SUM_OP,
                       hints=CollectiveHints(cb_buffer_size=1024))
        analysis = IterativeAnalysis(f, oio)
        regions = sliding_windows(parts[ctx.rank], axis=0, steps=steps,
                                  stride=4)
        results = yield from analysis.run(ctx, regions)
        if ctx.rank == 0:
            stats_holder["stats"] = analysis.stats
        return [r.global_result for r in results]

    res = mpi_run(m, nprocs, main)
    for s in range(steps):
        expect = truth_sum(Subarray((4 * s, 0, 0), (4, 8, 16)))
        assert res[0][s] == pytest.approx(expect), s
    st: IterativeStats = stats_holder["stats"]
    assert st.steps == steps
    assert st.plans_exchanged == 1         # only the first step paid
    assert st.plans_reused == steps - 1


def test_iterative_falls_back_on_non_translation():
    k, m, f = build()
    stats_holder = {}

    def main(ctx):
        parts0 = block_partition(Subarray((0, 0, 0), (4, 8, 16)),
                                 ctx.size, axis=1)
        oio = ObjectIO(DSPEC, parts0[ctx.rank], SUM_OP,
                       hints=CollectiveHints(cb_buffer_size=1024))
        analysis = IterativeAnalysis(f, oio)
        # Second region has a different *shape* -> fresh exchange.
        grown = Subarray((8, 0, 0), (8, 8, 16))
        parts1 = block_partition(grown, ctx.size, axis=1)
        results = yield from analysis.run(
            ctx, [parts0[ctx.rank], parts1[ctx.rank]])
        if ctx.rank == 0:
            stats_holder["stats"] = analysis.stats
        return [r.global_result for r in results]

    res = mpi_run(m, 4, main)
    assert res[0][0] == pytest.approx(truth_sum(Subarray((0, 0, 0), (4, 8, 16))))
    assert res[0][1] == pytest.approx(truth_sum(Subarray((8, 0, 0), (8, 8, 16))))
    assert stats_holder["stats"].plans_exchanged == 2
    assert stats_holder["stats"].plans_reused == 0


def test_iterative_rejects_blocking_oio():
    oio = ObjectIO(DSPEC, Subarray((0, 0, 0), (1, 1, 1)), SUM_OP, block=True)
    with pytest.raises(CollectiveComputingError):
        IterativeAnalysis(object(), oio)
