"""Interrupt handling and the zero-pending fast path of ``run_sweep``."""

import pickle
import signal

import pytest

from repro.errors import SweepInterrupted
from repro.parallel import PointCache, SweepPoint, run_sweep

FNS = "tests.crash.crashfuncs"


def _journal(tmp_path):
    return PointCache(tmp_path / "journal", max_entries=None)


def _ok_points(n, base_seed=0):
    return [SweepPoint.make(f"{FNS}:ok", label=f"ok#{i}", index=i,
                            base_seed=base_seed) for i in range(n)]


def test_sweepinterrupted_message_and_pickle():
    exc = SweepInterrupted(3, 8, "SIGTERM",
                           "python -m repro.experiments fig10 --resume",
                           journaled=True)
    assert exc.completed == 3
    assert exc.total == 8
    assert exc.signame == "SIGTERM"
    assert "interrupted by SIGTERM after 3 of 8 point(s)" in str(exc)
    assert "resume with: python -m repro.experiments fig10 --resume" in str(exc)
    for journaled in (True, False):
        exc = SweepInterrupted(3, 8, "SIGTERM", exc.resume_hint, journaled)
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.completed, clone.total, clone.signame,
                clone.resume_hint, clone.journaled) == (
                    3, 8, "SIGTERM", exc.resume_hint, journaled)
        assert str(clone) == str(exc)


def test_sweepinterrupted_without_resume_hint():
    exc = SweepInterrupted(0, 2)
    assert exc.signame == "SIGINT"
    assert "no resume command supplied" in str(exc)


def test_serial_interrupt_reports_progress_and_resumes(tmp_path):
    # Points 0 and 1 complete; point 2 raises KeyboardInterrupt (Ctrl-C)
    # on its first call.  The sweep must surface SweepInterrupted with
    # the journaled progress, and a second run over the same journal
    # must replay the completed points and finish.
    journal = _journal(tmp_path)
    points = _ok_points(2) + [
        SweepPoint.make(f"{FNS}:interrupt_once", label="intr#2", index=2,
                        marker_dir=str(tmp_path))]
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(points, jobs=1, journal=journal,
                  resume_hint="rerun --resume")
    exc = excinfo.value
    assert (exc.completed, exc.total) == (2, 3)
    assert exc.signame == "SIGINT"
    assert exc.resume_hint == "rerun --resume"
    assert journal.entry_count() == 2

    resumed = _journal(tmp_path)
    results = run_sweep(points, jobs=1, journal=resumed)
    assert results == [[0, 0], [1, 3], 2 * 19]
    assert resumed.hits == 2
    assert resumed.puts == 1


def test_interrupt_counts_the_sweeps_points_not_the_journals(tmp_path):
    # One journal serves every sweep of a run (fig10 runs a calibration
    # sweep, then its points), so the progress report must count this
    # sweep's completed points, not the journal's files; and without a
    # journal the points executed before the interrupt count too, but
    # the report must not claim they were journaled.
    journal = _journal(tmp_path)
    run_sweep(_ok_points(1, base_seed=9), jobs=1, journal=journal)
    for run_journal, claim in ((journal, "are journaled"),
                               (None, "were not journaled")):
        marker_dir = tmp_path / f"markers-{run_journal is None}"
        marker_dir.mkdir()
        points = _ok_points(1) + [
            SweepPoint.make(f"{FNS}:interrupt_once", label="intr#1",
                            index=1, marker_dir=str(marker_dir)),
            SweepPoint.make(f"{FNS}:ok", label="ok#2", index=2)]
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(points, jobs=1, journal=run_journal)
        assert (excinfo.value.completed, excinfo.value.total) == (1, 3)
        assert excinfo.value.journaled is (run_journal is not None)
        assert (f"after 1 of 3 point(s); completed points {claim}"
                in str(excinfo.value))


def test_sigterm_converts_to_sweepinterrupted(tmp_path):
    # A batch scheduler's SIGTERM mid-point must get the same clean
    # SweepInterrupted report as Ctrl-C, naming the signal — and the
    # previous SIGTERM disposition must be restored afterwards.
    previous = signal.getsignal(signal.SIGTERM)
    journal = _journal(tmp_path)
    points = _ok_points(1) + [
        SweepPoint.make(f"{FNS}:sigterm_self", label="term#1", index=1)]
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(points, jobs=1, journal=journal,
                  resume_hint="rerun --resume")
    exc = excinfo.value
    assert exc.signame == "SIGTERM"
    assert (exc.completed, exc.total) == (1, 2)
    assert signal.getsignal(signal.SIGTERM) is previous


def test_zero_pending_never_touches_the_pool(tmp_path, monkeypatch):
    # Regression guard: when the journal already covers every point,
    # run_sweep at jobs>1 must return without creating a pool, a signal
    # handler or a worker — so a poisoned supervisor must never fire.
    journal = _journal(tmp_path)
    points = _ok_points(3, base_seed=5)
    warm = run_sweep(points, jobs=1, journal=journal)
    assert journal.puts == 3

    import repro.parallel.supervisor as supervisor
    import repro.parallel.sweep as sweep_mod

    def boom(*args, **kwargs):
        raise AssertionError("pool touched on a zero-pending sweep")

    monkeypatch.setattr(supervisor, "run_supervised", boom)
    monkeypatch.setattr(sweep_mod, "_install_sigterm", boom)
    results = run_sweep(points, jobs=4, journal=_journal(tmp_path))
    assert results == warm
