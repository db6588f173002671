"""Unit tests for AccessRequest and RunPlacer."""

import numpy as np
import pytest

from repro.dataspace import DatasetSpec, RunList, Subarray
from repro.errors import IOLayerError
from repro.io import AccessRequest, RunPlacer


def test_from_subarray_carries_spec():
    spec = DatasetSpec((4, 4), np.float32, file_offset=8)
    sub = Subarray((1, 1), (2, 2))
    req = AccessRequest.from_subarray(spec, sub)
    assert req.nbytes == 16
    assert req.spec is spec and req.sub is sub


def test_as_array_reshapes():
    spec = DatasetSpec((4, 4), np.float32)
    req = AccessRequest.from_subarray(spec, Subarray((0, 0), (2, 3)))
    raw = np.arange(6, dtype=np.float32).view(np.uint8)
    arr = req.as_array(raw)
    assert arr.shape == (2, 3)
    assert arr.dtype == np.float32


def test_placer_total_and_single_run():
    placer = RunPlacer(RunList.from_pairs([(100, 10), (200, 20)]))
    assert placer.total_bytes == 30
    assert placer.place(100, 10) == [(0, 100, 10)]
    assert placer.place(200, 20) == [(10, 200, 20)]


def test_placer_partial_piece():
    placer = RunPlacer(RunList.from_pairs([(100, 10)]))
    assert placer.place(105, 3) == [(5, 105, 3)]


def test_placer_piece_spanning_runs():
    placer = RunPlacer(RunList.from_pairs([(0, 10), (20, 10)]))
    out = placer.place_clipped(5, 20)  # covers 5..10 and 20..25
    assert out == [(5, 5, 5), (10, 20, 5)]


def test_placer_rejects_uncovered_piece():
    placer = RunPlacer(RunList.from_pairs([(0, 10)]))
    with pytest.raises(IOLayerError):
        placer.place(5, 10)  # half in a hole


def test_placer_empty_runs():
    placer = RunPlacer(RunList.empty())
    assert placer.total_bytes == 0
    assert placer.place_clipped(0, 100) == []
