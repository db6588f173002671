"""Unit + property tests for run lists and hyperslab flattening."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataspace import (DatasetSpec, RunList, Subarray,
                             flatten_subarray, merge_runlists)
from repro.errors import DataspaceError


def brute_force_runs(spec: DatasetSpec, sub: Subarray):
    """Reference flattening via a boolean mask."""
    mask = np.zeros(spec.shape, dtype=bool)
    slices = tuple(slice(s, s + c) for s, c in zip(sub.start, sub.count))
    mask[slices] = True
    flat = mask.reshape(-1)
    runs = []
    i = 0
    while i < flat.size:
        if flat[i]:
            j = i
            while j < flat.size and flat[j]:
                j += 1
            runs.append((spec.file_offset + i * spec.itemsize,
                         (j - i) * spec.itemsize))
            i = j
        else:
            i += 1
    return runs


# -- RunList ----------------------------------------------------------------

def test_runlist_from_pairs_sorts_and_coalesces():
    rl = RunList.from_pairs([(20, 5), (0, 10), (10, 10)])
    assert list(rl) == [(0, 25)]


def test_runlist_drops_zero_lengths():
    rl = RunList.from_pairs([(5, 0), (10, 3)])
    assert list(rl) == [(10, 3)]


def test_runlist_from_pairs_unions_overlaps():
    # Regression: overlapping pairs must union into valid runs, not
    # trip the sorted/non-overlapping invariant.
    rl = RunList.from_pairs([(0, 10), (5, 10)])
    assert list(rl) == [(0, 15)]
    # A run fully contained in another.
    rl = RunList.from_pairs([(0, 20), (5, 5)])
    assert list(rl) == [(0, 20)]
    # Duplicates.
    rl = RunList.from_pairs([(8, 4), (8, 4), (8, 4)])
    assert list(rl) == [(8, 4)]
    # Overlap chain across unsorted input, plus a disjoint tail.
    rl = RunList.from_pairs([(30, 5), (0, 6), (4, 6), (9, 3)])
    assert list(rl) == [(0, 12), (30, 5)]


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 40)),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_runlist_from_pairs_matches_byte_mask(pairs):
    rl = RunList.from_pairs(pairs)
    mask = np.zeros(300, dtype=bool)
    for off, n in pairs:
        mask[off:off + n] = True
    rebuilt = np.zeros(300, dtype=bool)
    for off, n in rl:
        assert n > 0
        rebuilt[off:off + n] = True
    assert np.array_equal(mask, rebuilt)
    # Output satisfies the sorted/non-overlapping/coalesced invariant.
    ends = rl.offsets + rl.lengths
    assert (rl.offsets[1:] > ends[:-1]).all()


def test_runlist_invariant_validation():
    with pytest.raises(DataspaceError):
        RunList(np.array([0, 5]), np.array([10, 5]))  # overlap
    with pytest.raises(DataspaceError):
        RunList(np.array([0]), np.array([0]))  # zero length
    with pytest.raises(DataspaceError):
        RunList(np.array([-1]), np.array([2]))  # negative offset


def test_runlist_extent_and_bytes():
    rl = RunList.from_pairs([(10, 5), (30, 5)])
    assert rl.extent() == (10, 35)
    assert rl.total_bytes == 10
    assert RunList.empty().extent() is None
    assert RunList.empty().total_bytes == 0


def test_runlist_clip():
    rl = RunList.from_pairs([(0, 10), (20, 10)])
    assert list(rl.clip(5, 25)) == [(5, 5), (20, 5)]
    assert list(rl.clip(10, 20)) == []
    assert list(rl.clip(25, 5)) == []  # hi <= lo
    assert list(rl.clip(0, 100)) == list(rl)


def test_runlist_shift():
    rl = RunList.from_pairs([(10, 5)])
    assert list(rl.shift(5)) == [(15, 5)]
    with pytest.raises(DataspaceError):
        rl.shift(-11)


def test_runlist_equality_and_wire_size():
    a = RunList.from_pairs([(0, 4)])
    b = RunList.from_pairs([(0, 4)])
    assert a == b
    assert a.wire_size() == 32


# -- flatten ---------------------------------------------------------------

def test_flatten_whole_array_single_run():
    spec = DatasetSpec((4, 4), np.float64, file_offset=8)
    rl = flatten_subarray(spec, Subarray((0, 0), (4, 4)))
    assert list(rl) == [(8, 16 * 8)]


def test_flatten_empty_selection():
    spec = DatasetSpec((4, 4))
    assert len(flatten_subarray(spec, Subarray((0, 0), (0, 4)))) == 0


def test_flatten_row_runs():
    spec = DatasetSpec((4, 6), np.float32)
    rl = flatten_subarray(spec, Subarray((1, 2), (2, 3)))
    assert list(rl) == [(4 * (6 + 2), 12), (4 * (12 + 2), 12)]


def test_flatten_merges_full_rows():
    spec = DatasetSpec((4, 6), np.float32)
    rl = flatten_subarray(spec, Subarray((1, 0), (2, 6)))
    assert list(rl) == [(24, 48)]  # two full rows merge


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flatten_matches_brute_force(data):
    ndims = data.draw(st.integers(1, 4))
    shape = tuple(data.draw(st.integers(1, 7)) for _ in range(ndims))
    spec = DatasetSpec(shape, np.float64,
                       file_offset=data.draw(st.integers(0, 64)))
    start = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
    count = tuple(data.draw(st.integers(0, s - st_)) for s, st_ in
                  zip(shape, start))
    sub = Subarray(start, count)
    assert list(flatten_subarray(spec, sub)) == brute_force_runs(spec, sub)


def test_merge_runlists_disjoint():
    a = RunList.from_pairs([(0, 10)])
    b = RunList.from_pairs([(10, 5), (100, 5)])
    merged = merge_runlists([a, b, RunList.empty()])
    assert list(merged) == [(0, 15), (100, 5)]


def test_merge_runlists_overlap_union_for_reads():
    a = RunList.from_pairs([(0, 10), (30, 5)])
    b = RunList.from_pairs([(5, 10), (100, 5)])
    merged = merge_runlists([a, b])
    assert list(merged) == [(0, 15), (30, 5), (100, 5)]
    # Identical requests from several ranks collapse to one.
    same = merge_runlists([a, a, a])
    assert same == a


def test_merge_runlists_overlap_rejected_for_writes():
    a = RunList.from_pairs([(0, 10)])
    b = RunList.from_pairs([(5, 10)])
    with pytest.raises(DataspaceError):
        merge_runlists([a, b], allow_overlap=False)
    # Disjoint inputs stay fine under the strict mode.
    c = RunList.from_pairs([(10, 5)])
    assert list(merge_runlists([a, c], allow_overlap=False)) == [(0, 15)]


def test_merge_runlists_all_empty():
    assert len(merge_runlists([RunList.empty()])) == 0
    assert len(merge_runlists([])) == 0
