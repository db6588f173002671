"""Pool and cache determinism of merged metrics.

The contract under test: with ``REPRO_OBS`` on, the deterministic
snapshot after a sweep is a pure function of the points — identical
whether the points ran serially, across a spawn pool, or replayed from
the on-disk point cache.
"""

import pytest

from repro.flags import override
from repro.obs import metrics
from repro.parallel import PointCache, SweepPoint, run_sweep

pytestmark = pytest.mark.slow

POINTS = [
    SweepPoint.make("tests.obs.jobs:job_sum", rows=rows)
    for rows in (2, 4, 6)
]


def _sweep_snapshot(jobs, cache=None):
    with override(obs=True):
        values = run_sweep(POINTS, jobs=jobs, cache=cache)
        return values, metrics.current().snapshot()


def test_pool_merge_matches_serial():
    serial_values, serial_snap = _sweep_snapshot(jobs=1)
    pooled_values, pooled_snap = _sweep_snapshot(jobs=4)
    assert pooled_values == serial_values
    assert pooled_snap == serial_snap
    assert serial_snap["counters"]["sim.runs"] == len(POINTS)


def test_cache_replay_matches_cold_run(tmp_path):
    cache = PointCache(root=tmp_path)
    cold_values, cold_snap = _sweep_snapshot(jobs=1, cache=cache)
    assert cache.misses == len(POINTS)
    warm_values, warm_snap = _sweep_snapshot(jobs=1, cache=cache)
    assert cache.hits == len(POINTS)
    assert warm_values == cold_values
    assert warm_snap == cold_snap


def test_cache_key_separates_obs_states(tmp_path):
    """An entry written with obs off (no snapshot) must not satisfy an
    obs-on run — the flag is part of the cache key."""
    cache = PointCache(root=tmp_path)
    run_sweep(POINTS, cache=cache)  # obs off: entries without snapshots
    assert cache.misses == len(POINTS)
    _values, snap = _sweep_snapshot(jobs=1, cache=cache)
    assert cache.hits == 0  # no obs-off entry was reused
    assert cache.misses == 2 * len(POINTS)
    assert snap["counters"]["sim.runs"] == len(POINTS)


def test_worker_outcome_carries_no_snapshot_when_off():
    from repro.parallel.worker import execute_point

    with override(check=True, obs=False):
        outcome = execute_point((POINTS[0].fn, POINTS[0].kwargs))
    assert outcome[0] == "ok"
    assert outcome[2] is None
