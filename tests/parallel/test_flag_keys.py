"""The whole flags record keys every point-cache and journal entry, and
entries replay the race findings their point filed.

Each switch changes what a point checks, so an entry recorded under one
record must never stand in for a run under another — and a replayed
entry must report every finding the run that computed it reported.
"""

import pytest

from repro.check.races import drain_findings
from repro.flags import Flags, current, override
from repro.parallel import PointCache, SweepPoint, point_key, run_sweep

FNS = "tests.parallel.pointfuncs"


def test_point_cached_with_races_off_misses_with_races_on(tmp_path):
    cache = PointCache(root=tmp_path)
    points = [SweepPoint.make(f"{FNS}:probe_races")]
    with override(races=False):
        assert run_sweep(points, cache=cache) == [False]
    with override(races=True):
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


def _finding_messages(sweep):
    drain_findings()
    with override(races=True):
        sweep()
    return [f.message for f in drain_findings()]


def test_cached_race_finding_is_refiled_on_a_warm_hit(tmp_path):
    cache = PointCache(root=tmp_path)
    points = [SweepPoint.make(f"{FNS}:emit_finding", tag=f"t{i}")
              for i in range(2)]
    cold = _finding_messages(lambda: run_sweep(points, cache=cache))
    warm = _finding_messages(lambda: run_sweep(points, cache=cache))
    assert cache.hits == 2
    assert cold == warm == ["t0", "t1"]


def test_journaled_race_finding_is_refiled_on_replay(tmp_path):
    journal = PointCache(tmp_path / "j", max_entries=None)
    points = [SweepPoint.make(f"{FNS}:emit_finding", tag="j")]
    cold = _finding_messages(lambda: run_sweep(points, journal=journal))
    resumed = _finding_messages(lambda: run_sweep(points, journal=journal))
    assert journal.hits == 1
    assert cold == resumed == ["j"]


def test_ambient_findings_stay_out_of_point_entries(tmp_path):
    from repro.check.races import RaceFinding, report_finding

    cache = PointCache(root=tmp_path)
    points = [SweepPoint.make(f"{FNS}:square", x=3)]
    drain_findings()
    report_finding(RaceFinding("shared-state", 0.0, "ambient"))
    run_sweep(points, cache=cache)
    assert [f.message for f in drain_findings()] == ["ambient"]
    assert cache.get(points[0]) == (9, (), None)


@pytest.mark.slow
def test_workers_receive_the_whole_record():
    points = [SweepPoint.make(f"{FNS}:probe_flags")] * 2
    with override(check=True, races=True, shake=7, obs=True):
        expected = current()
        assert run_sweep(points, jobs=2) == [expected, expected]
    assert expected == Flags(check=True, races=True, shake=7, obs=True)
