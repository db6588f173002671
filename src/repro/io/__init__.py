"""MPI-IO layer: independent I/O, data sieving, two-phase collective I/O.

**Role.** A faithful ROMIO-style MPI-IO implementation: offset-list
exchange, file-domain partitioning, aggregator iterations bounded by
the collective buffer, the alltoallv shuffle, plus sieving, independent
and nonblocking variants.

**Paper mapping.** §II's background protocol — the *thing the paper
breaks*: collective computing (:mod:`repro.core`) splits this two-phase
pipeline between its read and shuffle phases, and the resilient
variants (:mod:`repro.faults`) recover it, all reusing this package's
:class:`~repro.io.twophase.TwoPhasePlan` artifacts.
"""

from .aggregation import (iteration_windows, partition_file_domains,
                          select_aggregators)
from .hints import CollectiveHints
from .independent import independent_read
from .nonblocking import icollective_read, wait_and_unpack
from .requests import AccessRequest, RunPlacer
from .sieving import sieving_read
from .twophase import (TwoPhasePlan, collective_read, collective_write,
                       make_plan)

__all__ = [
    "iteration_windows", "partition_file_domains", "select_aggregators",
    "CollectiveHints",
    "independent_read",
    "icollective_read", "wait_and_unpack",
    "AccessRequest", "RunPlacer", "sieving_read",
    "TwoPhasePlan", "collective_read", "collective_write", "make_plan",
]
