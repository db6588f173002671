"""Two-level (node-aware) collective computing: bit-identity with the
one-level path, the reassociability gate, and the node-local
pre-combine's wire savings."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import (COUNT_OP, MAX_OP, MAXLOC_OP, MEAN_OP, MIN_OP,
                        MINLOC_OP, MOMENTS_OP, SUM_OP, CCStats, HistogramOp,
                        ObjectIO, UserOp, object_get)
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.flags import override
from repro.io import CollectiveHints
from repro.mpi import mpi_run
from repro.sim import Kernel

DSPEC = DatasetSpec((12, 10, 8), np.float64, name="T")
GSUB = Subarray((1, 2, 1), (10, 7, 6))


def field(idx):
    return np.cos(idx.astype(np.float64) * 0.731) * (1.0 + 1e-4 * idx)


def run_job(op, *, two_level, reduce_mode="all_to_all", per_node=1,
            nprocs=8, cb=777, stats=None):
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    parts = block_partition(GSUB, nprocs, axis=0)
    hints = CollectiveHints(cb_buffer_size=cb, two_level=two_level,
                            aggregators_per_node=per_node)

    def main(ctx):
        oio = ObjectIO(DSPEC, parts[ctx.rank], op, block=False,
                       reduce_mode=reduce_mode, hints=hints)
        res = yield from object_get(ctx, f, oio, stats=stats)
        return res

    return mpi_run(m, nprocs, main), m


def _norm(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


def assert_results_identical(a, b, context):
    for r, (x, y) in enumerate(zip(a, b)):
        assert _norm(x.global_result) == _norm(y.global_result), (context, r)
        assert _norm(x.local) == _norm(y.local), (context, r)
        px = {k: _norm(v) for k, v in (x.per_rank or {}).items()}
        py = {k: _norm(v) for k, v in (y.per_rank or {}).items()}
        assert px == py, (context, r)


@pytest.mark.parametrize("op", [MAXLOC_OP, MINLOC_OP, MAX_OP, MIN_OP,
                                COUNT_OP, HistogramOp(bins=8, lo=-2., hi=2.)],
                         ids=lambda op: op.name)
@pytest.mark.parametrize("reduce_mode", ["all_to_all", "all_to_one"])
@pytest.mark.parametrize("per_node", [1, 2])
def test_reassociable_ops_bit_identical(op, reduce_mode, per_node):
    with override(check=True):
        one, _ = run_job(op, two_level=False, reduce_mode=reduce_mode,
                         per_node=per_node)
        two, _ = run_job(op, two_level=True, reduce_mode=reduce_mode,
                         per_node=per_node)
    assert_results_identical(one, two, (op.name, reduce_mode, per_node))


@pytest.mark.parametrize("op", [SUM_OP, MEAN_OP, MOMENTS_OP],
                         ids=lambda op: op.name)
def test_non_reassociable_ops_fall_back_bit_identical(op):
    """Float accumulations are not bit-exact under re-association, so
    the hint must silently fall back to one-level — making bit-identity
    trivially exact rather than approximately true."""
    assert not op.reassociable
    with override(check=True):
        one, _ = run_job(op, two_level=False)
        two, _ = run_job(op, two_level=True)
    assert_results_identical(one, two, op.name)


def test_user_op_never_two_level():
    op = UserOp(name="absmax",
                map_fn=lambda v, i: float(np.abs(v).max()),
                combine_fn=max)
    assert not op.reassociable
    one, _ = run_job(op, two_level=False)
    two, _ = run_job(op, two_level=True)
    assert one[0].global_result == two[0].global_result


@pytest.mark.parametrize("seed", range(5))
def test_random_regions_bit_identical(seed):
    rng = np.random.default_rng(seed)
    start = tuple(int(rng.integers(0, s - 1)) for s in DSPEC.shape)
    count = tuple(int(rng.integers(1, s - st + 1))
                  for s, st in zip(DSPEC.shape, start))
    gsub = Subarray(start, count)
    nprocs = int(rng.integers(4, 9))
    reduce_mode = ["all_to_all", "all_to_one"][int(rng.integers(0, 2))]
    cb = int(rng.choice([300, 777, 4096]))
    parts = block_partition(gsub, nprocs, axis=int(rng.integers(0, 3)))

    def job(two_level):
        k = Kernel()
        m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                          n_osts=3, stripe_size=512))
        f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                        dtype=np.float64, func=field,
                                        stripe_size=512)
        hints = CollectiveHints(cb_buffer_size=cb, two_level=two_level)

        def main(ctx):
            oio = ObjectIO(DSPEC, parts[ctx.rank], MAXLOC_OP, block=False,
                           reduce_mode=reduce_mode, hints=hints)
            res = yield from object_get(ctx, f, oio)
            return res

        return mpi_run(m, nprocs, main)

    with override(check=True):
        assert_results_identical(job(False), job(True),
                                 (seed, reduce_mode, cb))


def test_two_level_reduces_internode_partial_traffic():
    """With many windows per aggregator (small collective buffer), the
    node-local pre-combine must shrink cross-node wire bytes: partials
    cross once per (node pair), already merged, instead of once per
    (window, destination node)."""
    _one, m_one = run_job(MAXLOC_OP, two_level=False, cb=600)
    _two, m_two = run_job(MAXLOC_OP, two_level=True, cb=600)
    assert m_two.network.inter_node_bytes < m_one.network.inter_node_bytes


def test_stats_accumulate_under_two_level():
    stats = CCStats()
    res, _ = run_job(MAXLOC_OP, two_level=True, stats=stats)
    assert stats.map_elements == GSUB.n_elements
    assert stats.partial_count > 0
    assert stats.local_reduction_time > 0
    assert res[0].global_result is not None
