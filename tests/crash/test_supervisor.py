"""Supervision layer: attempt records plus pooled recovery drills.

The pooled tests spawn real worker processes and murder them (SIGKILL
from inside the point function), so they carry the ``slow`` marker like
the rest of the spawn-pool suite.
"""

import pickle

import pytest

from repro.obs import metrics
from repro.parallel import (MAX_RETRIES, Attempt, PointError, SweepPoint,
                            run_sweep)

FNS = "tests.crash.crashfuncs"
CRASH = "repro.check.crash"


def test_attempt_format_names_everything():
    line = Attempt(number=2, detail="worker pid 123 died").format()
    assert line == "attempt 2: worker-death (worker pid 123 died)"


def test_pointerror_lists_attempts_and_pickles():
    point = SweepPoint.make(f"{FNS}:ok", label="ok#0", index=0)
    attempts = (Attempt(1, "died"), Attempt(2, "died again"))
    err = PointError(point, 0, "gave up after 2 attempt(s)",
                     worker_traceback=None, attempts=attempts)
    text = str(err)
    assert "gave up after 2 attempt(s)" in text
    assert "attempt 1: worker-death (died)" in text
    assert "attempt 2: worker-death (died again)" in text
    clone = pickle.loads(pickle.dumps(err))
    assert clone.attempts == attempts
    assert clone.index == 0
    assert str(clone) == text


def _counters_after(points, **kwargs):
    """Run a sweep under a fresh scoped registry; return (results,
    supervision counters)."""
    with metrics.override_obs(True):
        results = run_sweep(points, **kwargs)
        registry = metrics.current()
        counters = dict(registry.counters)
    return results, counters


@pytest.mark.slow
def test_worker_death_is_retried(tmp_path):
    # Point 0 SIGKILLs its worker on the first attempt (the crash
    # campaign's trap function); the supervisor must re-execute it and
    # the merged results must be exactly the undisturbed ones.
    points = [SweepPoint.make(f"{CRASH}:flaky_point", label="trap#0",
                              index=0, base_seed=11,
                              marker_dir=str(tmp_path)),
              SweepPoint.make(f"{CRASH}:steady_point", label="ok#1",
                              index=1, base_seed=11)]
    from repro.check.crash import steady_point
    results, counters = _counters_after(points, jobs=2)
    assert results == [steady_point(0, 11), steady_point(1, 11)]
    assert counters.get("parallel.worker_deaths") == 1
    assert counters.get("parallel.point_retries") == 1
    assert counters.get("parallel.points_executed") == 2


@pytest.mark.slow
def test_retry_exhaustion_raises_pointerror_with_history():
    # The point's worker dies on every attempt: the first run and
    # MAX_RETRIES (2) re-executions, then the supervisor gives up.
    points = [SweepPoint.make(f"{FNS}:kill_always", label="kill#0", index=0),
              SweepPoint.make(f"{FNS}:ok", label="ok#1", index=1)]
    with pytest.raises(PointError) as excinfo:
        run_sweep(points, jobs=2)
    err = excinfo.value
    assert err.index == 0
    assert MAX_RETRIES == 2
    assert "gave up after 3 attempt(s)" in str(err)
    assert [a.number for a in err.attempts] == [1, 2, 3]
    assert all("died" in a.detail for a in err.attempts)
