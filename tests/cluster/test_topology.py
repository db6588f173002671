"""Unit tests for mesh topology."""

import pytest

from repro.cluster import MeshTopology
from repro.errors import ConfigError


def test_coords_row_major():
    t = MeshTopology(6, (3, 2), torus=False)
    assert t.coords(0) == (0, 0)
    assert t.coords(2) == (2, 0)
    assert t.coords(3) == (0, 1)
    assert t.coords(5) == (2, 1)


def test_hops_same_node_zero():
    t = MeshTopology(4, (2, 2))
    assert t.hops(1, 1) == 0


def test_hops_manhattan_no_torus():
    t = MeshTopology(9, (3, 3), torus=False)
    assert t.hops(0, 8) == 4  # (0,0) -> (2,2)
    assert t.hops(0, 1) == 1
    assert t.hops(1, 0) == t.hops(0, 1)


def test_torus_wraparound_shortens():
    line = MeshTopology(4, (4, 1), torus=False)
    ring = MeshTopology(4, (4, 1), torus=True)
    assert line.hops(0, 3) == 3
    assert ring.hops(0, 3) == 1


def test_validation():
    with pytest.raises(ConfigError):
        MeshTopology(5, (2, 2))
    with pytest.raises(ConfigError):
        MeshTopology(0, (1, 1))
    t = MeshTopology(4, (2, 2))
    with pytest.raises(ConfigError):
        t.coords(4)
