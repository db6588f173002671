"""The whole flags record keys every point-cache and journal entry.

Each switch changes what a point checks, so an entry recorded under one
record must never stand in for a run under another.
"""

import pytest

from repro.flags import Flags, current, override
from repro.parallel import PointCache, SweepPoint, point_key, run_sweep

FNS = "tests.parallel.pointfuncs"


def test_point_cached_with_check_off_misses_with_check_on(tmp_path):
    cache = PointCache(root=tmp_path)
    points = [SweepPoint.make(f"{FNS}:probe_checks")]
    with override(check=False):
        assert run_sweep(points, cache=cache) == [False]
    with override(check=True):
        assert run_sweep(points, cache=cache) == [True]
    assert (cache.hits, cache.misses) == (0, 2)


def test_shake_seeds_key_apart(tmp_path):
    point = SweepPoint.make(f"{FNS}:probe_shake")
    cache = PointCache(root=tmp_path)
    keys = set()
    for seed in (None, 7, 8):
        with override(shake=seed):
            keys.add(point_key(point))
            assert run_sweep([point], cache=cache) == [seed]
    assert len(keys) == 3
    assert (cache.hits, cache.misses) == (0, 3)


def test_journal_entry_is_not_replayed_under_another_record(tmp_path):
    journal = PointCache(tmp_path / "j", max_entries=None)
    points = [SweepPoint.make(f"{FNS}:probe_shake")]
    with override(shake=7):
        assert run_sweep(points, journal=journal) == [7]
    with override(shake=None):
        assert run_sweep(points, journal=journal) == [None]
    assert journal.hits == 0
    with override(shake=7):
        assert run_sweep(points, journal=journal) == [7]
    assert journal.hits == 1


def test_cached_entry_is_the_value_and_its_snapshot(tmp_path):
    """A stored entry is exactly ``(value, obs snapshot)``: with
    observability off the snapshot is ``None``."""
    cache = PointCache(root=tmp_path)
    points = [SweepPoint.make(f"{FNS}:square", x=3)]
    with override(obs=False):
        assert run_sweep(points, cache=cache) == [9]
    assert cache.get(points[0]) == (9, None)


@pytest.mark.slow
def test_workers_receive_the_whole_record():
    points = [SweepPoint.make(f"{FNS}:probe_flags")] * 2
    with override(check=True, shake=7, obs=True):
        expected = current()
        assert run_sweep(points, jobs=2) == [expected, expected]
    assert expected == Flags(check=True, shake=7, obs=True)
