"""Property tests on the two-phase plan invariants (window coverage,
disjointness) across random requests and hint settings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import DatasetSpec, Subarray, block_partition, \
    flatten_subarray
from repro.errors import IOLayerError
from repro.io import CollectiveHints
from repro.io.twophase import TwoPhasePlan, make_plan
from repro.dataspace import RunList
from repro.mpi import mpi_run
from repro.pfs import ProceduralSource
from repro.sim import Kernel

DSPEC = DatasetSpec((10, 12, 8), np.float64, file_offset=64, name="v")


def plan_for(gsub, nprocs, axis, cb, aggr_per_node=1, grid=None):
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                      n_osts=3, stripe_size=256))
    f = m.fs.create_file("v.nc", ProceduralSource(DSPEC.n_elements + 8),
                         stripe_size=256)
    parts = block_partition(gsub, nprocs, axis=axis)
    captured = {}

    def main(ctx):
        runs = flatten_subarray(DSPEC, parts[ctx.rank])
        plan = yield from make_plan(
            ctx, runs, f,
            CollectiveHints(cb_buffer_size=cb,
                            aggregators_per_node=aggr_per_node),
            grid)
        if ctx.rank == 0:
            captured["plan"] = plan
        return None

    mpi_run(m, nprocs, main)
    return captured["plan"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_plan_invariants_random(data):
    start = tuple(data.draw(st.integers(0, s - 1)) for s in DSPEC.shape)
    count = tuple(data.draw(st.integers(1, s - st_))
                  for s, st_ in zip(DSPEC.shape, start))
    nprocs = data.draw(st.integers(1, 8))
    axis = data.draw(st.integers(0, 2))
    cb = data.draw(st.sampled_from([64, 300, 1024, 10 ** 6]))
    # Two aggregators per node are only legal when every occupied node of
    # the 2-node machine hosts at least 2 ranks (balanced placement).
    aggr = data.draw(st.sampled_from([1, 2] if nprocs >= 4 else [1]))
    plan = plan_for(Subarray(start, count), nprocs, axis, cb, aggr)
    plan.validate()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_plan_invariants_with_element_grid(data):
    start = tuple(data.draw(st.integers(0, s - 1)) for s in DSPEC.shape)
    count = tuple(data.draw(st.integers(1, s - st_))
                  for s, st_ in zip(DSPEC.shape, start))
    cb = data.draw(st.sampled_from([65, 333, 1001]))  # odd sizes
    plan = plan_for(Subarray(start, count), 4, 0, cb,
                    grid=(DSPEC.file_offset, DSPEC.itemsize))
    plan.validate()
    # Element alignment: every window boundary falls on the grid or at
    # the data extent ends.
    for windows in plan.windows:
        for lo, hi in windows:
            assert (lo - DSPEC.file_offset) % DSPEC.itemsize == 0
            assert (hi - DSPEC.file_offset) % DSPEC.itemsize == 0


def test_validate_rejects_broken_plans():
    runs = RunList.from_pairs([(0, 100)])
    bad_overlap = TwoPhasePlan([runs], [0], [(0, 100)],
                               [[(0, 60), (50, 100)]])
    with pytest.raises(IOLayerError):
        bad_overlap.validate()
    bad_gap = TwoPhasePlan([runs], [0], [(0, 100)], [[(0, 50)]])
    with pytest.raises(IOLayerError):
        bad_gap.validate()
    bad_empty = TwoPhasePlan([runs], [0], [(0, 100)],
                             [[(0, 50), (50, 50)]])
    with pytest.raises(IOLayerError):
        bad_empty.validate()
    bad_escape = TwoPhasePlan([runs], [0], [(0, 50)],
                              [[(0, 50), (50, 100)]])
    with pytest.raises(IOLayerError, match="escapes its file domain"):
        bad_escape.validate()
    ok = TwoPhasePlan([runs], [0], [(0, 100)], [[(0, 50), (50, 100)]])
    ok.validate()
