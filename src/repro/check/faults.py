"""Recovery-coverage sanitizer for the resilient protocols.

The contract of :func:`repro.faults.resilient._resilient_exchange` is
that every window a rank expects is accounted for *exactly once*: it
either arrived from an aggregator (original or adoptive) or it is left
to the degraded tail for the rank to self-serve with independent I/O.
A gap silently drops data; an overlap double-counts it — and for the
collective-computing path double-combining a partial result corrupts
the reduction without any crash to point at it.

:func:`check_recovery_coverage` asserts that partition.  The resilient
exchange calls it when the ``check`` flag (:mod:`repro.flags`) is on, so —
like the other runtime sanitizers — it costs nothing in production runs
and guards every faulted scenario in the shake battery and the tests.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..errors import FaultError

#: Same identity as :data:`repro.faults.recovery.WindowKey` (not
#: imported from there: this layer must stay import-light so the
#: resilient protocols can depend on it without a cycle).
WindowKey = Tuple[int, int]


def check_recovery_coverage(expected: Iterable[WindowKey],
                            served: Iterable[WindowKey],
                            self_served: Iterable[WindowKey],
                            where: str = "") -> None:
    """Assert the post-recovery window accounting for one rank.

    Parameters
    ----------
    expected:
        Window keys this rank needed (its membership under the plan).
    served:
        Keys whose payload arrived over the exchange (any round).
    self_served:
        Keys left to this rank's degraded/independent tail.

    Raises :class:`~repro.errors.FaultError` when the two served sets
    overlap (double-count), leave an expected key uncovered (data
    loss), or cover a key outside the expectation (phantom window).
    """
    expected_set = set(expected)
    served_set = set(served)
    self_set = set(self_served)
    label = f" in {where}" if where else ""
    overlap = served_set & self_set
    if overlap:
        raise FaultError(
            f"window(s) both received and self-served{label} — the "
            f"reduction would double-count them: {sorted(overlap)}")
    covered = served_set | self_set
    uncovered = expected_set - covered
    if uncovered:
        raise FaultError(
            f"recovery left expected window(s) uncovered{label}: "
            f"{sorted(uncovered)}")
    phantom = covered - expected_set
    if phantom:
        raise FaultError(
            f"recovery covered window(s) outside this rank's "
            f"expectation{label}: {sorted(phantom)}")
