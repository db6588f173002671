"""The gates of ``benchmarks/track.py``: only ``--update`` (or a
missing record) moves the recorded wall reference, and the measured
``sim.events`` is printed on every run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACK = Path(__file__).resolve().parents[2] / "benchmarks" / "track.py"
PREVIOUS = {"fig10_quick": {"reference_wall_s": 1.0,
                            "reference_probe_s": 0.2}}


def load_track():
    spec = importlib.util.spec_from_file_location("bench_track", TRACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def args(update=False, no_check=False):
    return SimpleNamespace(no_check=no_check, threshold=0.25, update=update)


def test_only_update_moves_the_wall_reference():
    track = load_track()
    # A reading below the reference ratio passes and keeps the reference.
    assert track.ratchet("fig10_quick", 0.8, 0.2, PREVIOUS, args()) == \
        (1.0, 0.2, False)
    # A reading over the 25% limit regresses; the reference stays.
    assert track.ratchet("fig10_quick", 1.3, 0.2, PREVIOUS, args()) == \
        (1.0, 0.2, True)
    # --update rebases to the measurement.
    assert track.ratchet("fig10_quick", 0.8, 0.2, PREVIOUS,
                         args(update=True)) == (0.8, 0.2, False)
    # So does a missing record.
    assert track.ratchet("fig11_quick", 0.5, 0.25, PREVIOUS, args()) == \
        (0.5, 0.25, False)


def test_measure_only_run_prints_the_event_count(capsys):
    track = load_track()
    previous = {"fig10_quick": {"sim_events": 61614}}
    # Ungated: both counts are printed and no verdict; a drop still
    # ratchets the record down.
    assert track.ratchet_events("fig10_quick", 61000, previous,
                                args(no_check=True)) == (61000, False)
    out = capsys.readouterr().out
    assert "sim.events: 61000 (record 61614)" in out
    assert "OK" not in out and "REGRESSION" not in out
    # Gated: the same line carries the verdict.
    assert track.ratchet_events("fig10_quick", 61615, previous,
                                args()) == (61614, True)
    assert "sim.events: 61615 (record 61614) -> REGRESSION" in \
        capsys.readouterr().out
    # No record: the count is printed with a rebase note.
    assert track.ratchet_events("fig11_quick", 116717, previous,
                                args(no_check=True)) == (116717, False)
    assert "sim.events: 116717 (no record: rebasing)" in \
        capsys.readouterr().out
