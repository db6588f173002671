"""Integration-grade unit tests for the collective-computing runtime:
numerical equivalence with the traditional path and ground truth,
across operators, reduce modes, decompositions and hint settings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import (CCStats, MAXLOC_OP, MEAN_OP, MINLOC_OP, MOMENTS_OP,
                        ObjectIO, SUM_OP, HistogramOp, UserOp, locate,
                        object_get, cc_read_compute)
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.errors import CollectiveComputingError
from repro.io import CollectiveHints
from repro.mpi import mpi_run
from repro.sim import Kernel

DSPEC = DatasetSpec((12, 10, 8), np.float64, name="T")
GSUB = Subarray((1, 2, 1), (10, 7, 6))
HINTS = CollectiveHints(cb_buffer_size=777)  # odd size: exercises splits


def field(idx):
    return np.cos(idx.astype(np.float64) * 0.731) * (1.0 + 1e-4 * idx)


def truth_values():
    idx = np.arange(DSPEC.n_elements, dtype=np.int64).reshape(DSPEC.shape)
    sl = tuple(slice(s, s + c) for s, c in zip(GSUB.start, GSUB.count))
    lin = idx[sl].reshape(-1)
    return lin, field(lin)


def run_job(op, *, block, nprocs=8, axis=0, reduce_mode="all_to_all",
            hints=HINTS, stats=None):
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    parts = block_partition(GSUB, nprocs, axis=axis)

    def main(ctx):
        oio = ObjectIO(DSPEC, parts[ctx.rank], op, block=block,
                       reduce_mode=reduce_mode, hints=hints)
        res = yield from object_get(ctx, f, oio, stats=stats)
        return res

    return mpi_run(m, nprocs, main), k.now, parts


@pytest.mark.parametrize("op,expected", [
    (SUM_OP, lambda lin, v: pytest.approx(v.sum())),
    (MEAN_OP, lambda lin, v: pytest.approx(v.mean())),
    (MINLOC_OP, lambda lin, v: (pytest.approx(v.min()),
                                int(lin[np.argmin(v)]))),
    (MAXLOC_OP, lambda lin, v: (pytest.approx(v.max()),
                                int(lin[np.argmax(v)]))),
])
def test_cc_matches_ground_truth(op, expected):
    lin, vals = truth_values()
    res, _, _ = run_job(op, block=False)
    assert res[0].global_result == expected(lin, vals)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_cc_equals_traditional_all_axes(axis):
    cc, _, _ = run_job(SUM_OP, block=False, axis=axis)
    tr, _, _ = run_job(SUM_OP, block=True, axis=axis)
    assert cc[0].global_result == pytest.approx(tr[0].global_result)
    for a, b in zip(cc, tr):
        if a.local is None:
            assert b.local is None
        else:
            assert a.local == pytest.approx(b.local)


def test_cc_locals_match_per_rank_truth():
    res, _, parts = run_job(SUM_OP, block=False)
    idx = np.arange(DSPEC.n_elements, dtype=np.int64).reshape(DSPEC.shape)
    for r, part in enumerate(parts):
        if part.empty:
            assert res[r].local is None
            continue
        sl = tuple(slice(s, s + c) for s, c in zip(part.start, part.count))
        assert res[r].local == pytest.approx(field(idx[sl].reshape(-1)).sum())


def test_all_to_one_mode_root_has_everything():
    res, _, parts = run_job(SUM_OP, block=False, reduce_mode="all_to_one")
    lin, vals = truth_values()
    root = res[0]
    assert root.global_result == pytest.approx(vals.sum())
    assert root.per_rank is not None
    idx = np.arange(DSPEC.n_elements, dtype=np.int64).reshape(DSPEC.shape)
    for r, part in enumerate(parts):
        if part.empty:
            assert r not in root.per_rank
            continue
        sl = tuple(slice(s, s + c) for s, c in zip(part.start, part.count))
        assert root.per_rank[r] == pytest.approx(
            field(idx[sl].reshape(-1)).sum())
    # Non-root ranks have no global result in all-to-one mode.
    assert all(res[r].global_result is None for r in range(1, len(res)))


def test_all_to_one_shuffles_fewer_messages_than_all_to_all():
    s_a2a, s_a21 = CCStats(), CCStats()
    run_job(SUM_OP, block=False, reduce_mode="all_to_all", stats=s_a2a)
    run_job(SUM_OP, block=False, reduce_mode="all_to_one", stats=s_a21)
    # Same partials either way; the difference is routing.
    assert s_a2a.partial_count == s_a21.partial_count


def test_histogram_op_through_cc():
    lin, vals = truth_values()
    op = HistogramOp(bins=8, lo=-2.0, hi=2.0)
    res, _, _ = run_job(op, block=False)
    tr, _, _ = run_job(op, block=True)
    assert res[0].global_result.tolist() == tr[0].global_result.tolist()
    assert int(res[0].global_result.sum()) == vals.size


def test_user_op_through_cc():
    op = UserOp(name="absmax",
                map_fn=lambda v, i: float(np.abs(v).max()),
                combine_fn=max)
    lin, vals = truth_values()
    res, _, _ = run_job(op, block=False)
    assert res[0].global_result == pytest.approx(np.abs(vals).max())


def test_locate_converts_linear_to_coords():
    lin, vals = truth_values()
    res, _, _ = run_job(MINLOC_OP, block=False)
    value, coords = locate(DSPEC, res[0].global_result)
    assert DSPEC.linear_index(coords) == res[0].global_result[1]
    with pytest.raises(CollectiveComputingError):
        locate(DSPEC, "nope")


def test_cc_shuffle_moves_less_than_raw_data():
    # A coarse region (contiguous slabs): partial metadata is tiny
    # next to the raw bytes the traditional shuffle would move.  (With
    # very fine-grained runs metadata can exceed the data — that is the
    # regime the paper's Figure 12 explores, tested separately below.)
    gsub = Subarray((1, 0, 0), (10, 10, 8))
    parts = block_partition(gsub, 8, axis=0)
    stats = CCStats()
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)

    def main(ctx):
        oio = ObjectIO(DSPEC, parts[ctx.rank], SUM_OP,
                       hints=CollectiveHints(cb_buffer_size=4096))
        res = yield from object_get(ctx, f, oio, stats=stats)
        return res

    mpi_run(m, 8, main)
    raw_bytes = gsub.n_elements * DSPEC.itemsize
    assert 0 < stats.shuffle_bytes < raw_bytes
    assert stats.map_elements == gsub.n_elements


def test_cc_tiny_buffers_inflate_metadata():
    """Figure 12's mechanism: smaller collective buffers split logical
    subsets across iterations and multiply metadata records."""
    small, large = CCStats(), CCStats()
    run_job(SUM_OP, block=False, stats=small,
            hints=CollectiveHints(cb_buffer_size=600))
    run_job(SUM_OP, block=False, stats=large,
            hints=CollectiveHints(cb_buffer_size=65536))
    assert small.partial_count > large.partial_count
    assert small.metadata_bytes > large.metadata_bytes


def test_cc_rejects_block_true():
    k = Kernel()
    m = Machine(k, small_test_machine())

    def main(ctx):
        oio = ObjectIO(DSPEC, GSUB, SUM_OP, block=True)
        f = ctx.fs.create_procedural_file("x.nc", DSPEC.n_elements)
        with pytest.raises(CollectiveComputingError):
            yield from cc_read_compute(ctx, f, oio)
        yield ctx.kernel.timeout(0)
        return None

    mpi_run(m, 1, main)


def test_blocking_hint_variant_still_correct():
    hints = CollectiveHints(cb_buffer_size=777, pipeline=False)
    res, _, _ = run_job(SUM_OP, block=False, hints=hints)
    lin, vals = truth_values()
    assert res[0].global_result == pytest.approx(vals.sum())


def test_independent_mode_dispatch():
    res, _, _ = run_job(SUM_OP.with_cost(0.01), block=False, nprocs=4,
                        reduce_mode="all_to_all",
                        hints=HINTS)
    # mode dispatch via ObjectIO: run via object_get with independent mode
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    parts = block_partition(GSUB, 4, axis=0)

    def main(ctx):
        oio = ObjectIO(DSPEC, parts[ctx.rank], SUM_OP, mode="independent")
        r = yield from object_get(ctx, f, oio)
        return r

    out = mpi_run(m, 4, main)
    lin, vals = truth_values()
    assert out[0].global_result == pytest.approx(vals.sum())


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cc_equals_traditional_random_configs(data):
    """Property: for random regions/ops/decompositions, the CC pipeline
    and the traditional path agree exactly."""
    start = tuple(data.draw(st.integers(0, s - 2)) for s in DSPEC.shape)
    count = tuple(data.draw(st.integers(1, s - st_))
                  for s, st_ in zip(DSPEC.shape, start))
    gsub = Subarray(start, count)
    nprocs = data.draw(st.integers(1, 8))
    axis = data.draw(st.integers(0, 2))
    cb = data.draw(st.sampled_from([300, 777, 4096, 10 ** 6]))
    op = data.draw(st.sampled_from([SUM_OP, MEAN_OP, MINLOC_OP, MOMENTS_OP]))
    reduce_mode = data.draw(st.sampled_from(["all_to_all", "all_to_one"]))
    hints = CollectiveHints(cb_buffer_size=cb)
    parts = block_partition(gsub, nprocs, axis=axis)

    def job(block):
        k = Kernel()
        m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                          n_osts=3, stripe_size=512))
        f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                        dtype=np.float64, func=field,
                                        stripe_size=512)

        def main(ctx):
            oio = ObjectIO(DSPEC, parts[ctx.rank], op, block=block,
                           reduce_mode=reduce_mode, hints=hints)
            res = yield from object_get(ctx, f, oio)
            return res

        return mpi_run(m, nprocs, main)

    cc = job(False)
    tr = job(True)
    g_cc, g_tr = cc[0].global_result, tr[0].global_result
    if isinstance(g_cc, tuple):
        # Float entries tolerate combine-order rounding; ints (e.g. the
        # minloc location) must match exactly.
        for a, b in zip(g_cc, g_tr):
            if isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
            else:
                assert a == b
    elif isinstance(g_cc, float):
        assert g_cc == pytest.approx(g_tr)
    else:
        assert g_cc == g_tr
