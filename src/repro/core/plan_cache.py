"""Caller-held plan memoization for repeated collective calls.

:func:`repro.io.twophase.make_plan` memoizes plan *derivation* per
communicator, but every call still simulates the offset-list exchange
(an allgather every real MPI-IO implementation performs).  A
:class:`PlanMemo` goes one step further for the workload the paper's
conclusion names as future work — iterative analyses whose per-rank
requests are exact byte translations of an earlier step (a time-axis
sweep).  For those, a real implementation can skip the exchange
entirely by re-basing its cached flattened offsets; the memo models
exactly that by returning the cached plan shifted by the observed
translation.

The memo is opt-in (pass one to :func:`repro.core.api.object_get` or
:class:`repro.core.iterative.IterativeAnalysis` supplies its own)
because the caller asserts SPMD consistency: every rank must feed the
memo the same call history, so all ranks reach the same reuse decision
without communicating.  That holds whenever the *global* access pattern
translates rigidly — each rank's own runs then translate by the same
delta — which is the only case :func:`translation_delta` accepts.
"""

from __future__ import annotations

from typing import Optional

from .. import flags
from ..dataspace import RunList
from ..io.twophase import TwoPhasePlan
from ..obs import metrics


def translation_delta(base: RunList, other: RunList) -> Optional[int]:
    """The constant byte shift turning ``base`` into ``other``, or None
    if the two run lists are not exact translations of each other."""
    if len(base) != len(other):
        return None
    if len(base) == 0:
        return 0
    delta = int(other.offsets[0] - base.offsets[0])
    if (other.offsets - base.offsets == delta).all() and \
            (other.lengths == base.lengths).all():
        return delta
    return None


class PlanMemo:
    """Translation-based reuse of one base :class:`TwoPhasePlan`.

    Holds the most recent exchanged plan and the run list it was built
    for.  :meth:`lookup` answers with a (possibly shifted) plan when the
    new request is a whole-element translation of the base; otherwise
    the caller performs a fresh exchange and records it via
    :meth:`store`, which re-bases the memo (a sweep that jumps once and
    then resumes striding reuses the post-jump plan).

    ``exchanges`` counts stores (full offset exchanges) and ``reuses``
    successful lookups; :class:`repro.core.iterative.IterativeStats`
    reports them as ``plans_exchanged`` and ``plans_reused``.
    """

    __slots__ = ("base_runs", "base_plan", "exchanges", "reuses")

    def __init__(self) -> None:
        self.base_runs: Optional[RunList] = None
        self.base_plan: Optional[TwoPhasePlan] = None
        self.exchanges = 0
        self.reuses = 0

    def lookup(self, runs: RunList, itemsize: int = 1
               ) -> Optional[TwoPhasePlan]:
        """The cached plan re-based for ``runs``, or None.

        ``itemsize`` guards element alignment: a shifted plan keeps its
        window grid, so reuse is only valid when the translation moves
        whole elements (byte-level callers pass 1).
        """
        if self.base_plan is None or self.base_runs is None:
            return None
        delta = translation_delta(self.base_runs, runs)
        if delta is None or delta % itemsize != 0:
            return None
        self.reuses += 1
        m = metrics.current()
        if m is not None:
            m.count("io.plan_reuses")
        plan = self.base_plan if delta == 0 else self.base_plan.shifted(delta)
        if flags.current().check:
            from ..check.plan import check_translation
            check_translation(self.base_runs, runs, delta, plan)
        return plan

    def store(self, runs: RunList, plan: TwoPhasePlan) -> None:
        """Record a freshly exchanged ``plan`` as the new base."""
        self.base_runs = runs
        self.base_plan = plan
        self.exchanges += 1
        m = metrics.current()
        if m is not None:
            m.count("io.plan_exchanges")
