"""Supervision layer: retry policy units plus pooled recovery drills.

The pooled tests spawn real worker processes and murder them (SIGKILL
from inside the point function), so they carry the ``slow`` marker like
the rest of the spawn-pool suite.
"""

import pickle

import pytest

from repro.obs import metrics
from repro.parallel import (Attempt, PointError, RetrySpec, SweepPoint,
                            run_sweep)

FNS = "tests.crash.crashfuncs"
CRASH = "repro.check.crash"


def test_retryspec_backoff_schedule():
    spec = RetrySpec()
    assert spec.max_retries == 2
    assert spec.backoff(1) == pytest.approx(0.25)
    assert spec.backoff(2) == pytest.approx(0.5)
    assert spec.backoff(3) == pytest.approx(1.0)
    custom = RetrySpec(max_retries=5, backoff_base=1.0, backoff_factor=3.0)
    assert custom.backoff(3) == pytest.approx(9.0)


def test_retryspec_rejects_negative_retries():
    with pytest.raises(ValueError, match="max_retries"):
        RetrySpec(max_retries=-1)


def test_attempt_format_names_everything():
    line = Attempt(number=2, kind="worker-death",
                   detail="worker pid 123 died", backoff=0.5).format()
    assert line == ("attempt 2: worker-death (worker pid 123 died); "
                    "recorded backoff 0.5s")


def test_pointerror_lists_attempts_and_pickles():
    point = SweepPoint.make(f"{FNS}:ok", label="ok#0", index=0)
    attempts = (Attempt(1, "worker-death", "died", 0.25),
                Attempt(2, "deadline", "hung", 0.5))
    err = PointError(point, 0, "gave up after 2 attempt(s)",
                     worker_traceback=None, attempts=attempts)
    text = str(err)
    assert "gave up after 2 attempt(s)" in text
    assert "attempt 1: worker-death (died)" in text
    assert "attempt 2: deadline (hung)" in text
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
    results, counters = _counters_after(points, jobs=2,
                                        retry=RetrySpec(max_retries=2))
    assert results == [steady_point(0, 11), steady_point(1, 11)]
    assert counters.get("parallel.worker_deaths") == 1
    assert counters.get("parallel.point_retries") == 1
    assert counters.get("parallel.points_executed") == 2


@pytest.mark.slow
def test_retry_exhaustion_raises_pointerror_with_history():
    points = [SweepPoint.make(f"{FNS}:kill_always", label="kill#0", index=0),
              SweepPoint.make(f"{FNS}:ok", label="ok#1", index=1)]
    with pytest.raises(PointError) as excinfo:
        run_sweep(points, jobs=2, retry=RetrySpec(max_retries=1))
    err = excinfo.value
    assert err.index == 0
    assert "gave up after 2 attempt(s)" in str(err)
    assert len(err.attempts) == 2
    assert all(a.kind == "worker-death" for a in err.attempts)
    assert [a.number for a in err.attempts] == [1, 2]
    # The recorded (never slept) backoff schedule rides along.
    assert [a.backoff for a in err.attempts] == [0.25, 0.5]
