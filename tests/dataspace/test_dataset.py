"""Unit tests for DatasetSpec coordinate arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataspace import DatasetSpec
from repro.errors import DataspaceError


def test_basic_geometry():
    s = DatasetSpec((4, 5, 6), np.float32, file_offset=100, name="v")
    assert s.ndims == 3
    assert s.n_elements == 120
    assert s.itemsize == 4
    assert s.nbytes == 480
    assert s.strides == (30, 6, 1)


def test_linear_and_coords_roundtrip_examples():
    s = DatasetSpec((4, 5, 6))
    assert s.linear_index((0, 0, 0)) == 0
    assert s.linear_index((1, 0, 0)) == 30
    assert s.linear_index((3, 4, 5)) == 119
    assert s.coords_of(31) == (1, 0, 1)


def test_byte_mapping():
    s = DatasetSpec((2, 3), np.float64, file_offset=16)
    assert s.element_of_byte(16) == 0
    assert s.element_of_byte(16 + 47) == 5


def test_validation():
    with pytest.raises(DataspaceError):
        DatasetSpec(())
    with pytest.raises(DataspaceError):
        DatasetSpec((0, 3))
    with pytest.raises(DataspaceError):
        DatasetSpec((2, 2), file_offset=-1)
    s = DatasetSpec((2, 2))
    with pytest.raises(DataspaceError):
        s.linear_index((2, 0))
    with pytest.raises(DataspaceError):
        s.linear_index((0,))
    with pytest.raises(DataspaceError):
        s.coords_of(4)
    with pytest.raises(DataspaceError):
        s.element_of_byte(4 * 8)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_coords_roundtrip_property(data):
    ndims = data.draw(st.integers(1, 4))
    shape = tuple(data.draw(st.integers(1, 8)) for _ in range(ndims))
    s = DatasetSpec(shape)
    linear = data.draw(st.integers(0, s.n_elements - 1))
    coords = s.coords_of(linear)
    assert s.linear_index(coords) == linear
    # Matches numpy's unravel convention.
    assert coords == tuple(int(c) for c in np.unravel_index(linear, shape))
