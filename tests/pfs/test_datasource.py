"""Unit tests for data sources (procedural, array, composite)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PFSError
from repro.pfs import (ArraySource, CompositeSource, ProceduralSource,
                       linear_field)


def test_procedural_linear_values():
    src = ProceduralSource(100, np.float64, func=linear_field(2.0, 1.0))
    vals = src.values(10, 5)
    assert np.array_equal(vals, 2.0 * np.arange(10, 15) + 1.0)


def test_procedural_read_bytes_roundtrip():
    src = ProceduralSource(64, np.float64, func=linear_field())
    raw = src.read(8 * 8, 8 * 4)  # elements 8..11
    arr = np.frombuffer(raw, dtype=np.float64)
    assert np.array_equal(arr, np.arange(8, 12, dtype=np.float64))


def test_procedural_unaligned_read():
    src = ProceduralSource(16, np.float64, func=linear_field())
    whole = src.read(0, src.size)
    # A misaligned middle slice must equal the same bytes of the whole.
    assert src.read(13, 27) == whole[13:40]


def test_procedural_default_field_range():
    src = ProceduralSource(10_000, np.float64)
    vals = src.values(0, 10_000)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    # Deterministic.
    assert np.array_equal(vals, ProceduralSource(10_000).values(0, 10_000))


def test_procedural_out_of_range():
    src = ProceduralSource(10, np.float32)
    with pytest.raises(PFSError):
        src.read(0, src.size + 1)
    with pytest.raises(PFSError):
        src.read(-1, 4)
    with pytest.raises(PFSError):
        src.values(5, 6)


def test_procedural_is_read_only():
    src = ProceduralSource(10)
    assert not src.writable
    with pytest.raises(PFSError):
        src.write(0, b"xx")


def test_array_source_read_write():
    arr = np.arange(10, dtype=np.int64)
    src = ArraySource(arr)
    assert src.writable
    assert np.frombuffer(src.read(0, 80), dtype=np.int64)[3] == 3
    src.write(0, np.int64(99).tobytes())
    assert src.as_array()[0] == 99
    # The original array is untouched (source copies).
    assert arr[0] == 0


def test_composite_source_layout_and_reads():
    a = ArraySource(np.arange(4, dtype=np.uint8))
    b = ArraySource(np.arange(10, 16, dtype=np.uint8))
    comp = CompositeSource([a, b])
    assert comp.size == 10
    assert comp.read(0, 10) == bytes([0, 1, 2, 3, 10, 11, 12, 13, 14, 15])
    # Spanning read across the boundary.
    assert comp.read(2, 4) == bytes([2, 3, 10, 11])


def test_composite_source_write_forwarding():
    a = ArraySource(np.zeros(4, dtype=np.uint8))
    b = ArraySource(np.zeros(4, dtype=np.uint8))
    comp = CompositeSource([a, b])
    comp.write(2, bytes([7, 8, 9, 10]))
    assert a.as_array().tolist() == [0, 0, 7, 8]
    assert b.as_array().tolist() == [9, 10, 0, 0]


def test_composite_requires_parts():
    with pytest.raises(PFSError):
        CompositeSource([])


@settings(max_examples=50, deadline=None)
@given(offset=st.integers(0, 799), length=st.integers(0, 800))
def test_procedural_reads_consistent_with_full_read(offset, length):
    """Any sub-read equals the same slice of a full read."""
    src = ProceduralSource(100, np.float64, func=linear_field(3.0, -1.0))
    length = min(length, src.size - offset)
    assert src.read(offset, length) == src.read(0, src.size)[offset:offset + length]
