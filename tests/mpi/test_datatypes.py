"""Unit tests for MPI derived datatypes and flattening."""

import pytest

from repro.errors import MPIError
from repro.mpi import (BYTE, DOUBLE, FLOAT, INT, Contiguous, SubarrayType,
                       Vector)


def test_basic_types():
    assert DOUBLE.size == 8 and DOUBLE.extent == 8
    assert FLOAT.size == 4
    assert INT.size == 4
    assert BYTE.size == 1
    assert list(DOUBLE.flatten()) == [(0, 8)]


def test_contiguous():
    t = Contiguous(5, DOUBLE)
    assert t.size == 40 and t.extent == 40
    assert list(t.flatten()) == [(0, 40)]
    with pytest.raises(MPIError):
        Contiguous(-1, DOUBLE)


def test_vector_flatten():
    # 3 blocks of 2 doubles, stride 4 doubles.
    t = Vector(3, 2, 4, DOUBLE)
    assert t.size == 48
    assert t.extent == (2 * 4 + 2) * 8
    assert list(t.flatten()) == [(0, 16), (32, 16), (64, 16)]


def test_vector_stride_equals_blocklength_is_contiguous():
    t = Vector(3, 2, 2, DOUBLE)
    assert list(t.flatten()) == [(0, 48)]


def test_vector_overlap_rejected():
    with pytest.raises(MPIError):
        Vector(2, 3, 2, DOUBLE)


def test_tiled_instances():
    t = Vector(2, 1, 2, INT)  # runs at 0 and 8, extent 12
    runs = t.tiled(2)
    # Second instance starts at byte 12; its first run (12, 4) touches
    # the previous instance's last run (8, 4) and coalesces.
    assert list(runs) == [(0, 4), (8, 8), (20, 4)]
    assert list(t.tiled(0)) == []
    with pytest.raises(MPIError):
        t.tiled(-1)


def test_subarray_type_matches_dataspace():
    t = SubarrayType((4, 6), (2, 3), (1, 2), FLOAT)
    assert t.size == 6 * 4
    assert t.extent == 24 * 4
    assert list(t.flatten()) == [(4 * (6 + 2), 12), (4 * (12 + 2), 12)]


def test_subarray_type_validation():
    with pytest.raises(MPIError):
        SubarrayType((4,), (2, 2), (0, 0), FLOAT)
    with pytest.raises(MPIError):
        SubarrayType((4, 4), (2, 2), (0, 0), Contiguous(2, FLOAT))


def test_nested_contiguous_of_vector():
    inner = Vector(2, 1, 2, BYTE)  # bytes at 0 and 2, extent 3
    outer = Contiguous(2, inner)
    assert list(outer.flatten()) == [(0, 1), (2, 2), (5, 1)]
    assert outer.size == 4
