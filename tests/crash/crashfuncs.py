"""Module-level point functions for the crash/recovery tests.

Spawn workers resolve point functions by dotted path, so everything a
pooled test runs must live at module level in an importable module —
same idiom as ``tests/parallel/pointfuncs.py``.  The trap functions
here communicate across attempts through marker files (the retry runs
in a *different* process, so module globals are useless).
"""

import os
import signal
import time
from pathlib import Path


def ok(index, base_seed=0):
    """A well-behaved deterministic point."""
    return [index, base_seed + index * 3]


def kill_always(index):
    """Die by SIGKILL on every attempt (an unrecoverable point)."""
    os.kill(os.getpid(), signal.SIGKILL)


def interrupt_once(index, marker_dir):
    """Raise ``KeyboardInterrupt`` (i.e. Ctrl-C) on the first call only."""
    marker = Path(marker_dir) / f"intr-{index}"
    if not marker.exists():
        marker.write_text("first\n")
        raise KeyboardInterrupt
    return index * 19


def sigterm_self(index):
    """Deliver SIGTERM to the running process mid-point, as a batch
    scheduler preempting the job would, then idle so the handler fires."""
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(5.0)
    return index  # pragma: no cover - the handler interrupts the sleep
