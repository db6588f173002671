"""Unit + property tests for map/reduce operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (COUNT_OP, HistogramOp, MAXLOC_OP, MAX_OP, MEAN_OP,
                        MINLOC_OP, MIN_OP, MOMENTS_OP, SUM_OP, UserOp)
from repro.errors import CollectiveComputingError

VALUES = np.array([3.0, -1.0, 7.0, 7.0, 0.5])


def test_sum():
    assert SUM_OP.map_chunk(VALUES) == pytest.approx(16.5)
    assert SUM_OP.combine(2.0, 3.0) == 5.0
    assert SUM_OP.finalize(5.0) == 5.0


def test_count():
    assert COUNT_OP.map_chunk(VALUES) == 5
    assert COUNT_OP.combine(2, 3) == 5


def test_max_min():
    assert MAX_OP.map_chunk(VALUES) == 7.0
    assert MIN_OP.map_chunk(VALUES) == -1.0
    assert MAX_OP.combine(1.0, 2.0) == 2.0
    assert MIN_OP.combine(1.0, 2.0) == 1.0
    with pytest.raises(CollectiveComputingError):
        MAX_OP.map_chunk(np.array([]))


def test_maxloc_with_base_index():
    assert MAXLOC_OP.map_chunk(VALUES, 100) == (7.0, 102)


def test_maxloc_with_index_array():
    idx = np.array([10, 20, 30, 40, 50])
    assert MAXLOC_OP.map_chunk(VALUES, idx) == (7.0, 30)


def test_maxloc_requires_indices():
    with pytest.raises(CollectiveComputingError):
        MAXLOC_OP.map_chunk(VALUES, None)


def test_maxloc_combine_tie_lower_index():
    assert MAXLOC_OP.combine((7.0, 5), (7.0, 3)) == (7.0, 3)
    assert MAXLOC_OP.combine((7.0, 3), (7.0, 5)) == (7.0, 3)


def test_minloc():
    assert MINLOC_OP.map_chunk(VALUES, 0) == (-1.0, 1)
    assert MINLOC_OP.combine((1.0, 9), (1.0, 2)) == (1.0, 2)


def test_mean():
    p = MEAN_OP.map_chunk(VALUES)
    assert p == (pytest.approx(16.5), 5)
    assert MEAN_OP.finalize((10.0, 4)) == 2.5
    assert MEAN_OP.combine((1.0, 1), (2.0, 2)) == (3.0, 3)
    with pytest.raises(CollectiveComputingError):
        MEAN_OP.finalize((0.0, 0))


def test_moments():
    p = MOMENTS_OP.map_chunk(np.array([1.0, 2.0, 3.0]))
    mean, var = MOMENTS_OP.finalize(p)
    assert mean == pytest.approx(2.0)
    assert var == pytest.approx(2.0 / 3.0)


def test_histogram():
    op = HistogramOp(bins=4, lo=0.0, hi=4.0)
    counts = op.map_chunk(np.array([0.5, 1.5, 1.6, 3.9, -1.0, 99.0]))
    # -1 clips into bin 0, 99 into bin 3.
    assert counts.tolist() == [2, 2, 0, 2]
    assert op.combine(counts, counts).tolist() == [4, 4, 0, 4]
    assert op.partial_nbytes(counts) == 32
    with pytest.raises(CollectiveComputingError):
        HistogramOp(bins=0)
    with pytest.raises(CollectiveComputingError):
        HistogramOp(lo=1.0, hi=1.0)


def test_user_op():
    op = UserOp(name="absmax",
                map_fn=lambda v, i: float(np.abs(v).max()),
                combine_fn=max,
                finalize_fn=lambda p: round(p, 1))
    assert op.map_chunk(VALUES) == 7.0
    assert op.combine(3.0, 9.0) == 9.0
    assert op.finalize(7.05) == 7.0
    with pytest.raises(CollectiveComputingError):
        UserOp(map_fn=None, combine_fn=max)


def test_with_cost_copies():
    op = SUM_OP.with_cost(5.0)
    assert op.ops_per_element == 5.0
    assert SUM_OP.ops_per_element == 1.0
    assert op.name == "sum"


def test_combine_many():
    assert SUM_OP.combine_many([1.0, 2.0, 3.0]) == 6.0
    with pytest.raises(CollectiveComputingError):
        SUM_OP.combine_many([])


def test_partial_nbytes_defaults():
    assert SUM_OP.partial_nbytes(1.0) == 8
    assert MEAN_OP.partial_nbytes((1.0, 2)) == 16
    assert MOMENTS_OP.partial_nbytes((1, 2.0, 3.0)) == 24
    assert SUM_OP.partial_nbytes(np.zeros(3)) == 24


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       split=st.integers(1, 59))
def test_sum_split_invariance(values, split):
    """Mapping in two chunks then combining equals mapping once."""
    arr = np.array(values)
    split = min(split, len(values))
    whole = SUM_OP.map_chunk(arr)
    parts = SUM_OP.combine(SUM_OP.map_chunk(arr[:split]),
                           SUM_OP.map_chunk(arr[split:]) if split < len(values)
                           else 0.0)
    assert parts == pytest.approx(whole, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2,
                       max_size=40),
       split=st.integers(1, 39))
def test_minloc_split_invariance(values, split):
    arr = np.array(values)
    split = min(split, len(values) - 1)
    whole = MINLOC_OP.map_chunk(arr, 0)
    combined = MINLOC_OP.combine(
        MINLOC_OP.map_chunk(arr[:split], 0),
        MINLOC_OP.map_chunk(arr[split:], split))
    assert combined == whole
