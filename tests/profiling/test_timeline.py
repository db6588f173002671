"""Unit tests for the phase timeline."""

import pytest

from repro.errors import ReproError
from repro.profiling import PhaseTimeline


def test_record_and_phases():
    tl = PhaseTimeline()
    tl.record(0, 0, "read", 0.0, 1.0)
    tl.record(0, 0, "shuffle", 1.0, 1.5)
    tl.record(1, 0, "read", 0.0, 2.0)
    assert [s.phase for s in tl.samples] == ["read", "shuffle", "read"]
    with pytest.raises(ReproError):
        tl.record(0, 0, "read", 1.0, 0.5)


def test_per_iteration_reduces():
    tl = PhaseTimeline()
    tl.record(0, 0, "read", 0.0, 1.0)
    tl.record(1, 0, "read", 0.0, 3.0)
    tl.record(0, 1, "read", 0.0, 2.0)
    assert tl.per_iteration("read", "max") == [(0, 3.0), (1, 2.0)]
    assert tl.per_iteration("read", "sum") == [(0, 4.0), (1, 2.0)]
    assert tl.per_iteration("read", "mean") == [(0, 2.0), (1, 2.0)]
    with pytest.raises(ReproError):
        tl.per_iteration("read", "median")


def test_totals():
    tl = PhaseTimeline()
    tl.record(0, 0, "read", 0.0, 1.0)
    tl.record(1, 0, "read", 0.0, 3.0)
    tl.record(0, 1, "read", 5.0, 6.0)
    assert tl.critical_total("read") == pytest.approx(4.0)
    assert tl.critical_total("shuffle") == 0.0
