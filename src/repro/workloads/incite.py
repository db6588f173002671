"""Table I: data requirements of representative INCITE applications.

The paper motivates collective computing with the on-line/off-line data
volumes of ALCF INCITE projects (its Table I, sourced from Ross et
al.'s SC'08 'Parallel I/O in practice' tutorial).  The registry below
reproduces the table verbatim and provides the aggregate statistics the
introduction cites ("data processed online ... has exceeded TBs; the
off-line data is near PBs of scale").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..config import TiB
from ..profiling import format_table


@dataclass(frozen=True)
class INCITEProject:
    """One row of the paper's Table I."""

    name: str
    online_tb: float
    offline_tb: float

    @property
    def online_bytes(self) -> int:
        """On-line data volume in bytes."""
        return int(self.online_tb * TiB)


#: The paper's Table I, verbatim.
PROJECTS: Tuple[INCITEProject, ...] = (
    INCITEProject("FLASH: Buoyancy-Driven Turbulent Nuclear Burning", 75, 300),
    INCITEProject("Reactor Core Hydrodynamics", 2, 5),
    INCITEProject("Computational Nuclear Structure", 4, 40),
    INCITEProject("Computational Protein Structure", 1, 2),
    INCITEProject("Performance Evaluation and Analysis", 1, 1),
    INCITEProject("Climate Science", 10, 345),
    INCITEProject("Parkinson's Disease", 2.5, 50),
    INCITEProject("Plasma Microturbulence", 2, 10),
    INCITEProject("Lattice QCD", 1, 44),
    INCITEProject("Thermal Striping in Sodium Cooled Reactors", 4, 8),
)


def total_online_tb() -> float:
    """Total on-line data across the projects (TB)."""
    return sum(p.online_tb for p in PROJECTS)


def total_offline_tb() -> float:
    """Total off-line data across the projects (TB)."""
    return sum(p.offline_tb for p in PROJECTS)


def rows() -> List[Tuple[str, str, str]]:
    """Table rows formatted like the paper (``NNTB`` strings)."""
    def fmt(v: float) -> str:
        return f"{v:g}TB"
    return [(p.name, fmt(p.online_tb), fmt(p.offline_tb)) for p in PROJECTS]


def render() -> str:
    """The paper's Table I as ASCII text, with aggregate footer."""
    table = format_table(
        ["Project", "On-Line Data", "Off-Line Data"], rows(),
        title="Table I: Data Requirements of Representative INCITE "
              "Applications at ALCF",
    )
    footer = (f"\nTotal on-line: {total_online_tb():g} TB"
              f" | total off-line: {total_offline_tb():g} TB"
              f" ({total_offline_tb() / 1024:.2f} PB scale)")
    return table + footer
