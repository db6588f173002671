"""Protocol fuzzing: random machines x workloads x hints.

Each example builds a random platform (nodes, cores, OSTs, stripe
sizes), a random dataset and decomposition, random hints, and runs the
collective-computing pipeline against the traditional path, asserting

* numeric equality of global and per-rank results,
* plan invariants (window coverage/disjointness),
* accounting consistency (map elements == requested elements).

This is the widest net in the suite — anything that breaks scheduling,
matching, alignment or reduction tends to land here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import CostModel, PlatformSpec
from repro.core import (CCStats, MEAN_OP, MINLOC_OP, ObjectIO, SUM_OP,
                        object_get)
from repro.dataspace import (DatasetSpec, Subarray, block_partition,
                             flatten_subarray, grid_partition)
from repro.io import CollectiveHints
from repro.io.twophase import make_plan
from repro.mpi import mpi_run
from repro.sim import Kernel


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_cc_vs_traditional_fuzz(data):
    # --- random platform -------------------------------------------------
    nodes = data.draw(st.integers(1, 4))
    cores = data.draw(st.sampled_from([2, 4, 8]))
    n_osts = data.draw(st.integers(1, 6))
    stripe = data.draw(st.sampled_from([128, 512, 4096]))
    platform = PlatformSpec(nodes=nodes, cores_per_node=cores,
                            torus=data.draw(st.booleans()),
                            n_osts=n_osts, default_stripe_size=stripe,
                            cost=CostModel())
    # --- random dataset + decomposition -------------------------------------
    ndims = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(2, 10)) for _ in range(ndims))
    file_offset = 8 * data.draw(st.integers(0, 4))
    spec = DatasetSpec(shape, np.float64, file_offset=file_offset, name="v")
    start = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
    count = tuple(data.draw(st.integers(1, s - st_))
                  for s, st_ in zip(shape, start))
    gsub = Subarray(start, count)
    nprocs = data.draw(st.integers(1, min(8, nodes * cores)))
    axis = data.draw(st.integers(0, ndims - 1))
    parts = block_partition(gsub, nprocs, axis=axis)
    # --- random hints + op --------------------------------------------------
    # Balanced placement: occupied nodes hold at least nprocs // occupied
    # ranks each.  Only draw 2 aggregators per node when every occupied
    # node can honor it; select_aggregators raises otherwise.
    min_ranks_per_node = nprocs // min(nprocs, nodes)
    hints = CollectiveHints(
        cb_buffer_size=data.draw(st.sampled_from([96, 300, 1024, 10 ** 5])),
        aggregators_per_node=data.draw(
            st.sampled_from([1, 2] if min_ranks_per_node >= 2 else [1])),
        pipeline=data.draw(st.booleans()),
    )
    op = data.draw(st.sampled_from([SUM_OP, MEAN_OP, MINLOC_OP]))
    reduce_mode = data.draw(st.sampled_from(["all_to_all", "all_to_one"]))

    def field(idx):
        return np.cos(idx.astype(np.float64) * 0.13) + idx * 1e-5

    def job(block, stats=None):
        k = Kernel()
        m = Machine(k, platform)
        f = m.fs.create_procedural_file("v.nc", spec.n_elements + 4,
                                        dtype=np.float64, func=field,
                                        stripe_size=stripe)

        def main(ctx):
            oio = ObjectIO(spec, parts[ctx.rank], op, block=block,
                           reduce_mode=reduce_mode, hints=hints)
            res = yield from object_get(ctx, f, oio, stats=stats)
            return res

        return mpi_run(m, nprocs, main)

    stats = CCStats()
    cc = job(False, stats)
    tr = job(True)
    g_cc, g_tr = cc[0].global_result, tr[0].global_result
    if isinstance(g_cc, tuple):
        assert g_cc[0] == pytest.approx(g_tr[0], rel=1e-9, abs=1e-12)
        assert g_cc[1] == g_tr[1]
    else:
        assert g_cc == pytest.approx(g_tr, rel=1e-9, abs=1e-12)
    assert stats.map_elements == gsub.n_elements
    # Plan invariants for the same request (element grid active).
    k = Kernel()
    m = Machine(k, platform)
    f = m.fs.create_procedural_file("v.nc", spec.n_elements + 4,
                                    dtype=np.float64, stripe_size=stripe)
    holder = {}

    def plan_main(ctx):
        runs = flatten_subarray(spec, parts[ctx.rank])
        plan = yield from make_plan(ctx, runs, f, hints,
                                    (spec.file_offset, spec.itemsize))
        if ctx.rank == 0:
            holder["plan"] = plan
        return None

    mpi_run(m, nprocs, plan_main)
    holder["plan"].validate()


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_grid_decompositions_fuzz(data):
    """Cartesian (multi-axis) decompositions through the full pipeline."""
    shape = (data.draw(st.integers(4, 8)), data.draw(st.integers(4, 8)))
    spec = DatasetSpec(shape, np.float64, name="v")
    gx = data.draw(st.integers(1, 2))
    gy = data.draw(st.integers(1, 3))
    parts = grid_partition(Subarray((0, 0), shape), (gx, gy))
    nprocs = gx * gy
    platform = PlatformSpec(nodes=2, cores_per_node=4, n_osts=2,
                            default_stripe_size=256)

    def field(idx):
        return idx.astype(np.float64)

    def job(block):
        k = Kernel()
        m = Machine(k, platform)
        f = m.fs.create_procedural_file("v.nc", spec.n_elements,
                                        dtype=np.float64, func=field,
                                        stripe_size=256)

        def main(ctx):
            oio = ObjectIO(spec, parts[ctx.rank], SUM_OP,
                           hints=CollectiveHints(cb_buffer_size=200),
                           block=block)
            res = yield from object_get(ctx, f, oio)
            return res.global_result

        return mpi_run(m, nprocs, main)

    expect = float(np.arange(spec.n_elements).sum())
    assert job(False)[0] == pytest.approx(expect)
    assert job(True)[0] == pytest.approx(expect)
