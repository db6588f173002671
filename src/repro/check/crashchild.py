"""Subprocess driver for the crash campaign's parent-kill drills.

``python -m repro.check.crashchild SPEC.json`` runs one journaled sweep
of :func:`repro.check.crash.steady_point` points described by the spec
file::

    {"count": 6, "base_seed": 17, "jobs": 2, "journal_root": "..."}

and prints a single JSON line with the results and the journal's
split into replayed (``"replays"``, the journal's hits) and recorded
(``"records"``, its puts) points.  The campaign
(:mod:`repro.check.crash`) launches it twice: once with
``REPRO_JOURNAL_DIE_AFTER=K`` in the environment — the journal SIGKILLs
the process right after its ``K``-th durable put — and once more over
the surviving journal, asserting the second run replays exactly ``K``
points and prints exactly what an uninterrupted run would.

A separate executable module (rather than a ``subprocess -c`` snippet)
so the ``spawn`` start method can re-import the main module by path in
the sweep's worker processes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the sweep described by the spec file; see module docstring."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.check.crashchild SPEC.json",
              file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    from ..parallel import PointCache, SweepPoint, run_sweep

    points = [SweepPoint.make("repro.check.crash:steady_point",
                              label=f"child#{i}", index=i,
                              base_seed=spec["base_seed"])
              for i in range(spec["count"])]
    journal = PointCache(Path(spec["journal_root"]), max_entries=None)
    results = run_sweep(points, jobs=spec.get("jobs", 1), journal=journal)
    print(json.dumps({"results": results, "replays": journal.hits,
                      "records": journal.puts}))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
