"""Fault injection and resilient collective computing.

**Role.** A seeded, deterministic fault model for the simulated
machine — slow/failed OST requests, straggler or fail-stop aggregator
ranks, dropped/delayed point-to-point messages, and silently corrupted
storage/wire bytes (detected by :mod:`repro.integrity`) — plus the
recovery machinery that lets the paper's pipeline survive it: bounded
retry with exponential backoff, timed receives with aggregator failover
over the existing :class:`~repro.io.twophase.TwoPhasePlan` artifacts,
and graceful degradation to independent I/O.

**Paper mapping.** The paper (§V, conclusion) evaluates on a healthy
Hopper/Lustre testbed and names fault tolerance of collective computing
as future work; this package is that investigation.  The fault classes
follow the related work: aggregation concentrates load on few ranks
that become single points of failure (Kang et al.), and collectives can
trade fidelity for resilience under an explicit error budget (C-Coll).

Layout: :mod:`~repro.faults.plan` decides (pure, hash-seeded),
:mod:`~repro.faults.injector` applies and logs,
:mod:`~repro.faults.recovery` holds the policies (the retry policy
lives in :mod:`repro.io.independent` and is re-exported here),
:mod:`~repro.faults.resilient` is the round-based recoverable protocol.
"""

from ..io.independent import RetryPolicy, read_with_retry
from .injector import FaultInjector, FaultRecord
from .plan import FaultPlan
from .recovery import (RecoveryPolicy, assign_orphans, degradation_needed,
                       merge_missed, merge_missed_pairs,
                       required_aggregators)
from .resilient import (resilient_cc_read_compute,
                        resilient_collective_read, resilient_object_get,
                        resilient_traditional_read_compute)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultRecord",
    "RetryPolicy",
    "RecoveryPolicy",
    "read_with_retry",
    "required_aggregators",
    "degradation_needed",
    "assign_orphans",
    "merge_missed",
    "merge_missed_pairs",
    "resilient_collective_read",
    "resilient_cc_read_compute",
    "resilient_traditional_read_compute",
    "resilient_object_get",
]
