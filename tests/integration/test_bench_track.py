"""The wall-reference gate of ``benchmarks/track.py``: only ``--update``
(or a missing record) moves the recorded reference."""

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


def args(update=False):
    return SimpleNamespace(no_check=False, threshold=0.25, update=update)


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
