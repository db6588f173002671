"""Tests for the caller-held plan memo (`repro.core.plan_cache`)."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import (IterativeAnalysis, ObjectIO, PlanMemo, SUM_OP,
                        object_get)
from repro.core.plan_cache import translation_delta
from repro.dataspace import (DatasetSpec, RunList, Subarray,
                             block_partition)
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


def run_sweep(iterative, steps=4):
    """Run ``steps`` translated CC passes, as separate object_get calls
    or as one :class:`IterativeAnalysis`; returns (global results per
    step, final kernel.now, each rank's IterativeStats or None)."""
    k, m, f = build()

    def main(ctx):
        regions = [block_partition(Subarray((4 * s, 0, 0), (4, 8, 16)),
                                   ctx.size, axis=1)[ctx.rank]
                   for s in range(steps)]
        oio = ObjectIO(DSPEC, regions[0], SUM_OP,
                       hints=CollectiveHints(cb_buffer_size=1024))
        if iterative:
            analysis = IterativeAnalysis(f, oio)
            results = yield from analysis.run(ctx, regions)
            return [r.global_result for r in results], analysis.stats
        out = []
        for region in regions:
            res = yield from object_get(ctx, f, oio.for_rank(region))
            out.append(res.global_result)
        return out, None

    res = mpi_run(m, 4, main)
    return res[0][0], k.now, [stats for _out, stats in res]


def test_memo_lookup_store_and_counters():
    memo = PlanMemo()
    a = RunList.from_pairs([(0, 8), (32, 8)])
    assert memo.lookup(a) is None

    class FakePlan:
        def shifted(self, delta):
            return ("shifted", delta)

    memo.store(a, FakePlan())
    assert memo.exchanges == 1
    # delta == 0 returns the base plan object itself.
    same = RunList.from_pairs([(0, 8), (32, 8)])
    assert isinstance(memo.lookup(same), FakePlan)
    b = a.shift(64)
    assert memo.lookup(b) == ("shifted", 64)
    assert memo.reuses == 2
    # Misaligned translation is rejected under an element grid.
    assert memo.lookup(a.shift(4), itemsize=8) is None
    # Non-translation misses and does not count a reuse.
    c = RunList.from_pairs([(0, 8), (40, 8)])
    assert memo.lookup(c) is None
    assert memo.reuses == 2


def test_store_rebases_the_memo():
    memo = PlanMemo()
    a = RunList.from_pairs([(0, 8)])

    class P:
        def shifted(self, delta):
            return (id(self), delta)

    p0, p1 = P(), P()
    memo.store(a, p0)
    memo.store(a.shift(1000), p1)  # a jump: fresh exchange re-bases
    assert memo.exchanges == 2
    assert memo.lookup(a.shift(1064)) == (id(p1), 64)


def test_object_get_plan_memo_reuses_and_matches_baseline():
    baseline, t_base, _ = run_sweep(iterative=False)
    with_memo, t_memo, stats = run_sweep(iterative=True)
    # Numerically identical results on every step.
    for s, (a, b) in enumerate(zip(baseline, with_memo)):
        assert a == b, s
        assert a == pytest.approx(truth_sum(Subarray((4 * s, 0, 0),
                                                     (4, 8, 16))))
    # Every rank paid one exchange and reused the rest.
    for rank_stats in stats:
        assert rank_stats.plans_exchanged == 1
        assert rank_stats.plans_reused == 3
    # Skipping the offset exchange can only shorten the simulated run.
    assert t_memo <= t_base


def test_translation_delta_reexported_from_iterative():
    from repro.core.iterative import translation_delta as td
    assert td is translation_delta
