"""Unit tests for the CPU profiler."""

import pytest

from repro.errors import ReproError
from repro.profiling import CpuProfiler


def test_record_validation():
    p = CpuProfiler(2)
    with pytest.raises(ReproError):
        p.record(0, "weird", 0.0, 1.0)
    with pytest.raises(ReproError):
        p.record(0, "user", 1.0, 0.5)
    p.record(0, "user", 1.0, 1.0)  # zero-length dropped silently
    assert p.intervals == []
    with pytest.raises(ReproError):
        CpuProfiler(0)


def test_totals():
    p = CpuProfiler(2)
    p.record(0, "user", 0.0, 1.0)
    p.record(1, "wait", 0.0, 3.0)
    p.record(0, "sys", 1.0, 1.5)
    t = p.totals()
    assert t == {"user": 1.0, "sys": 0.5, "wait": 3.0}


def test_overlapping_intervals_merged_per_rank_kind():
    p = CpuProfiler(1)
    p.record(0, "wait", 0.0, 2.0)
    p.record(0, "wait", 1.0, 3.0)  # overlaps: one waiting process
    assert p.totals()["wait"] == pytest.approx(3.0)
    # Different ranks do not merge.
    p2 = CpuProfiler(2)
    p2.record(0, "wait", 0.0, 2.0)
    p2.record(1, "wait", 1.0, 3.0)
    assert p2.totals()["wait"] == pytest.approx(4.0)


def test_span():
    p = CpuProfiler(1)
    assert p.span() == (0.0, 0.0)
    p.record(0, "user", 2.0, 3.0)
    p.record(0, "wait", 0.5, 1.0)
    assert p.span() == (0.5, 3.0)


def test_series_percentages():
    p = CpuProfiler(2)  # denominator: 2 ranks
    p.record(0, "user", 0.0, 1.0)
    p.record(1, "wait", 0.0, 2.0)
    rows = p.series(1.0)
    assert len(rows) == 2
    assert rows[0]["user"] == pytest.approx(50.0)
    assert rows[0]["wait"] == pytest.approx(50.0)
    assert rows[0]["idle"] == pytest.approx(0.0)
    assert rows[1]["user"] == 0.0
    assert rows[1]["wait"] == pytest.approx(50.0)
    assert rows[1]["idle"] == pytest.approx(50.0)


def test_series_interval_spanning_bins():
    p = CpuProfiler(1)
    p.record(0, "wait", 0.0, 0.25)  # anchors the first bin at t = 0
    p.record(0, "user", 0.25, 2.75)
    rows = p.series(1.0)
    assert [r["t"] for r in rows] == [0.0, 1.0, 2.0]
    fracs = [r["user"] for r in rows]
    assert fracs == [pytest.approx(75.0), pytest.approx(100.0),
                     pytest.approx(75.0)]


def test_series_bin_width_validation():
    p = CpuProfiler(1)
    with pytest.raises(ReproError):
        p.series(0.0)
    assert p.series(1.0) == []


def test_percentages_overall():
    p = CpuProfiler(1)
    p.record(0, "wait", 0.0, 8.0)
    p.record(0, "user", 8.0, 10.0)
    pct = p.percentages()
    assert pct["wait"] == pytest.approx(80.0)
    assert pct["user"] == pytest.approx(20.0)
    assert pct["idle"] == pytest.approx(0.0)
