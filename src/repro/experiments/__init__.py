"""Paper experiments: one module per table/figure, plus the registry.

**Role.** The reproduction's deliverable: each ``figNN_*.py`` /
``table1_*.py`` module regenerates one paper artifact as an
:class:`ExperimentResult` table (ASCII plot and CSV on request), driven
from ``python -m repro.experiments``.

**Paper mapping.** §II's motivating profiles (Figures 1-3) and the §V
evaluation (Table I, Figures 9-13), plus :mod:`.fig14_faults` — a
beyond-the-paper fault-injection study answering the fault-tolerance
question the conclusion leaves open.
"""

from .common import (DEFAULT_HINTS, PAPER_COST, ExperimentResult, RunOutcome,
                     hopper_platform, measure_io_time, run_objectio_job)
from .registry import names, run

__all__ = [
    "DEFAULT_HINTS", "PAPER_COST", "ExperimentResult", "RunOutcome",
    "hopper_platform", "measure_io_time", "run_objectio_job",
    "names", "run",
]
