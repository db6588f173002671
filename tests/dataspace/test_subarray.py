"""Unit tests for hyperslab selections."""

import numpy as np
import pytest

from repro.dataspace import DatasetSpec, Subarray, full_selection
from repro.errors import DataspaceError


def test_basic_properties():
    s = Subarray((1, 2), (3, 4))
    assert s.ndims == 2
    assert s.n_elements == 12
    assert s.end == (4, 6)
    assert not s.empty
    assert Subarray((0,), (0,)).empty


def test_validation():
    with pytest.raises(DataspaceError):
        Subarray((1,), (1, 2))
    with pytest.raises(DataspaceError):
        Subarray((-1,), (1,))
    with pytest.raises(DataspaceError):
        Subarray((0,), (-1,))
    spec = DatasetSpec((4, 4))
    with pytest.raises(DataspaceError):
        Subarray((2, 0), (3, 4)).validate(spec)
    with pytest.raises(DataspaceError):
        Subarray((0,), (4,)).validate(spec)
    Subarray((0, 0), (4, 4)).validate(spec)  # ok


def test_contains():
    s = Subarray((1, 1), (2, 2))
    assert s.contains((1, 1))
    assert s.contains((2, 2))
    assert not s.contains((3, 1))
    assert not s.contains((0, 1))
    with pytest.raises(DataspaceError):
        s.contains((1,))


def test_intersect():
    a = Subarray((0, 0), (4, 4))
    b = Subarray((2, 3), (4, 4))
    inter = a.intersect(b)
    assert inter == Subarray((2, 3), (2, 1))
    assert b.intersect(a) == inter
    assert a.intersect(Subarray((4, 0), (1, 1))) is None
    with pytest.raises(DataspaceError):
        a.intersect(Subarray((0,), (1,)))


def test_full_selection():
    spec = DatasetSpec((3, 4, 5))
    f = full_selection(spec)
    assert f.start == (0, 0, 0)
    assert f.count == (3, 4, 5)
    assert f.n_elements == spec.n_elements


def test_nbytes():
    spec = DatasetSpec((4, 4), np.float32)
    assert Subarray((0, 0), (2, 2)).nbytes(spec) == 16
