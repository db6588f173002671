"""Recovery policies: bounded retry, timeouts, failover, degradation.

Three layers of defence, applied by :mod:`repro.faults.resilient` in
escalation order:

1. **Retry with exponential backoff**
   (:class:`~repro.io.independent.RetryPolicy`,
   :func:`~repro.io.independent.read_with_retry`) absorbs transient OST
   failures without any coordination — the cheapest recovery, local to
   one read.
2. **Timed receives with aggregator failover**: a receiver that waits
   longer than :attr:`RecoveryPolicy.read_timeout` for a window suspects
   the serving aggregator; after an agreement allgather the missed
   windows are re-served by survivors (:func:`assign_orphans`), reusing
   the original :class:`~repro.io.twophase.TwoPhasePlan` artifacts
   (``window_pieces`` / ``read_span``) — only *who serves* changes,
   never *what is served*.
3. **Graceful degradation** to independent I/O
   (:func:`degradation_needed`): when fewer aggregators survive than
   :attr:`RecoveryPolicy.min_aggregator_fraction` requires (or the
   failover round budget is exhausted), every rank reads and maps its
   own missing pieces directly — slower, but needing no aggregator at
   all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import FaultError, RecoveryError
from ..io.independent import RetryPolicy

#: A window's identity across recovery rounds: its position in the
#: original plan — ``(aggregator index, iteration)``.
WindowKey = Tuple[int, int]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Everything the resilient protocols need to decide how hard to
    fight before giving ground.

    Parameters
    ----------
    retry:
        Backoff schedule for transient OST failures.
    read_timeout:
        Simulated seconds a receiver waits for one window before
        suspecting its aggregator.  Must exceed the healthy inter-window
        gap, or healthy aggregators are suspected spuriously (false
        positives are *safe* — the suspect stops serving and its windows
        are re-served — but they cost a failover round).
    min_aggregator_fraction:
        Collective serving continues while at least
        ``ceil(fraction * original aggregator count)`` aggregators
        survive; below that the job degrades to independent I/O.  A
        surviving count *exactly at* the ceiling stays collective.
    max_rounds:
        Failover rounds attempted before degrading unconditionally.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    read_timeout: float = 0.5
    min_aggregator_fraction: float = 0.5
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.read_timeout <= 0:
            raise FaultError(
                f"read_timeout must be > 0, got {self.read_timeout}")
        if not 0.0 <= self.min_aggregator_fraction <= 1.0:
            raise FaultError("min_aggregator_fraction must be in [0, 1]")
        if self.max_rounds < 1:
            raise FaultError(f"max_rounds must be >= 1, got {self.max_rounds}")


def required_aggregators(n_original: int, fraction: float) -> int:
    """Minimum surviving aggregators for collective serving (never
    below one)."""
    return max(1, math.ceil(fraction * n_original))


def degradation_needed(n_alive: int, n_original: int,
                       fraction: float) -> bool:
    """Whether the survivor count has fallen *below* the collective
    minimum.  Exactly meeting the threshold stays collective."""
    return n_alive < required_aggregators(n_original, fraction)


def assign_orphans(missing: Sequence[WindowKey],
                   survivors: Sequence[int]) -> Dict[WindowKey, int]:
    """Deal the missed windows round-robin over surviving aggregators.

    ``missing`` must be sorted and ``survivors`` in rank order on every
    rank (both are derived from the allgathered agreement data), so all
    ranks compute the identical assignment without further
    communication.  This is the only place a window changes server:
    the windows themselves, and so what is served, never change.
    """
    if not survivors:
        raise RecoveryError(
            "no surviving aggregator to adopt the orphaned windows")
    return {w: survivors[i % len(survivors)]
            for i, w in enumerate(missing)}


def merge_missed(entries: Sequence[Sequence[WindowKey]]
                 ) -> Tuple[List[WindowKey], Dict[WindowKey, List[int]]]:
    """Fold the allgathered per-rank miss lists into the shared view:
    the sorted list of missed windows, and which ranks missed each.

    ``entries[r]`` is rank ``r``'s report.  Every rank folds the same
    allgathered entries, so every rank derives the same view.
    """
    missed_by: Dict[WindowKey, List[int]] = {}
    for r, misses in enumerate(entries):
        for w in misses:
            missed_by.setdefault(tuple(w), []).append(r)
    missing = sorted(missed_by)
    return missing, missed_by


def merge_missed_pairs(
    entries: Sequence[Tuple[Sequence[WindowKey], Sequence[WindowKey]]]
) -> Tuple[List[WindowKey], Dict[WindowKey, List[int]], List[WindowKey]]:
    """Fold allgathered ``(timeout missed, corrupt missed)`` pair
    entries — the agreement format used when wire digests are on —
    into ``(missing, missed_by, timeout_missing)``.

    ``missing`` and ``missed_by`` cover *both* miss kinds (every such
    window must be re-served); ``timeout_missing`` lists only the
    timed-out windows, the ones that indict their server — a corrupt
    delivery proves its server alive, so it must not feed the suspect
    set.
    """
    t_missing, t_by = merge_missed([e[0] for e in entries])
    _c_missing, c_by = merge_missed([e[1] for e in entries])
    missed_by: Dict[WindowKey, List[int]] = {
        w: list(ranks) for w, ranks in t_by.items()}
    for w, ranks in c_by.items():
        missed_by[w] = sorted(set(missed_by.get(w, [])) | set(ranks))
    return sorted(missed_by), missed_by, t_missing
