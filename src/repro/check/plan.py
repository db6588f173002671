"""Plan sanitizers — invariant checks on :class:`TwoPhasePlan`.

The two-phase schedule is the contract between the offset exchange,
the aggregator read/shuffle loops and the receiver unpack loop; its
per-(rank, window) derivations are memoized shared artifacts.  Two
checks prove, for one concrete plan, that the schedule is sound and
the artifacts agree with their from-scratch definitions:

* :func:`check_plan` — file-domain/window coverage, non-overlap and
  domain containment (delegating to :meth:`TwoPhasePlan.validate`),
  and the receiver schedule: every ``membership`` pair holds data,
  every rank's bytes sit in its member windows, and the memoized
  ``window_pieces``/``read_span`` equal a fresh clip.  It costs one
  clip per (rank, window) pair that holds data plus one per window,
  never one per (rank, window) pair;
* :func:`check_translation` — :class:`~repro.core.plan_cache.PlanMemo`
  soundness: a claimed translation really is one, and the shifted plan
  passes :func:`check_plan`.

Shuffle wire sizes are checked where they are charged: every raw-byte
shuffle message leaves through :func:`repro.io.twophase.shuffle_send`,
which compares its closed form with ``wire_size`` of the real payload.

Both raise :class:`~repro.errors.IOLayerError` with the failing
coordinate.  They run when ``REPRO_CHECK`` is on (see
:mod:`repro.flags`), as in ``python -m repro.check shake``'s scenario
battery; they are never on the hot path otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import IOLayerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataspace import RunList
    from ..io.twophase import TwoPhasePlan


def check_plan(plan: "TwoPhasePlan") -> None:
    """Structural invariants plus the receiver schedule and memos.

    * :meth:`TwoPhasePlan.validate` (coverage, non-overlap, domain
      containment);
    * for each rank, a fresh clip of its runs to every window
      ``membership`` marks for it is non-empty and equals any memoized
      ``window_pieces``, and those clips sum to the rank's
      ``total_bytes`` — the windows are disjoint, so a membership false
      negative shows as missing bytes;
    * memoized ``window_pieces`` outside the membership are empty;
    * every memoized ``read_span`` is its window's fresh extent.
    """
    plan.validate()
    coords = [(i, t) for i, ws in enumerate(plan.windows)
              for t in range(len(ws))]
    member = plan.membership
    memo = plan.__dict__.get("_window_pieces", {})
    for r, runs in enumerate(plan.all_runs):
        scheduled = 0
        for w in np.flatnonzero(member[r]).tolist():
            i, t = coords[w]
            fresh = runs.clip(*plan.windows[i][t])
            if not len(fresh):
                raise IOLayerError(
                    f"plan sanitizer: membership[{r}, ({i}, {t})] is set "
                    f"but the window holds no bytes of rank {r}")
            pieces = memo.get((r, i, t))
            if pieces is not None and pieces != fresh:
                raise IOLayerError(
                    f"plan sanitizer: memoized window_pieces({r}, {i}, "
                    f"{t}) disagrees with a fresh clip of rank {r}'s runs "
                    f"to {plan.windows[i][t]}")
            scheduled += fresh.total_bytes
        if scheduled != runs.total_bytes:
            raise IOLayerError(
                f"plan sanitizer: rank {r} requested {runs.total_bytes} "
                f"bytes but its member windows schedule {scheduled}")
    for (r, i, t), pieces in memo.items():
        if len(pieces) and not member[r, plan.flat_index(i, t)]:
            raise IOLayerError(
                f"plan sanitizer: memoized window_pieces({r}, {i}, {t}) "
                f"holds {len(pieces)} piece(s) outside rank {r}'s "
                f"membership")
    for (i, t), span in plan.__dict__.get("_read_spans", {}).items():
        fresh_span = plan.global_runs.clip(*plan.windows[i][t]).extent()
        if span != fresh_span:
            raise IOLayerError(
                f"plan sanitizer: memoized read_span({i}, {t}) = "
                f"{span} but fresh recomputation gives {fresh_span}")


def check_translation(base_runs: "RunList", runs: "RunList", delta: int,
                      shifted: "TwoPhasePlan") -> None:
    """:class:`~repro.core.plan_cache.PlanMemo` soundness for one reuse.

    The memo claims ``runs == base_runs.shift(delta)`` and answers with
    the base plan shifted by ``delta``; verify both the claim and that
    the shifted plan passes :func:`check_plan` (a corrupted carried-over
    artifact, such as the receiver schedule, would surface here).
    """
    if base_runs.shift(delta) != runs:
        raise IOLayerError(
            f"plan sanitizer: PlanMemo reuse with delta={delta} but the "
            f"request is not an exact translation of the memo base")
    from ..io.twophase import TwoPhasePlan

    # Structural validation applies to real plans only; unit tests may
    # feed the memo lightweight stand-ins, for which the translation
    # claim above is the whole contract.
    if isinstance(shifted, TwoPhasePlan):
        check_plan(shifted)
