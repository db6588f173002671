"""Table I — data requirements of representative INCITE applications."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..workloads import incite
from .common import ExperimentResult, sweep

#: ``--quick`` configuration (the table is already instant).
QUICK_KWARGS: Dict[str, Any] = {}

_FN = "repro.experiments.table1_incite:run_point"


def run_point() -> Tuple:
    """The table's single point: rows plus the summary totals."""
    return (incite.rows(), len(incite.PROJECTS),
            incite.total_online_tb(), incite.total_offline_tb())


def points() -> List[Dict[str, Any]]:
    """A static table: a single (trivial) sweep point."""
    return [{}]


def run(*, jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate the paper's Table I."""
    [(rows, n_projects, online_tb, offline_tb)] = sweep(
        _FN, points(), jobs=jobs, cache=cache, journal=journal)
    return ExperimentResult(
        experiment_id="table1",
        title="Data Requirements of Representative INCITE Applications at ALCF",
        headers=["Project", "On-Line Data", "Off-Line Data"],
        rows=rows,
        settings=[
            ("projects", n_projects),
            ("total on-line (TB)", online_tb),
            ("total off-line (TB)", offline_tb),
        ],
        paper_expectation=(
            "on-line volumes exceed TBs (FLASH 75TB); off-line data "
            "approaches PB scale (sum over projects ~0.8PB)"
        ),
    )
