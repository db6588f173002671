"""Plan sanitizers — invariant checks on :class:`TwoPhasePlan`.

The two-phase schedule is the contract between the offset exchange,
the aggregator read/shuffle loops and the receiver unpack loop; PR 1
replaced many of its per-(rank, window) derivations with memoized
shared artifacts and closed-form byte accounting.  These checks prove,
for one concrete plan, that the memoized artifacts still agree with
their from-scratch definitions:

* :func:`check_plan` — file-domain/window coverage and non-overlap
  (delegating to :meth:`TwoPhasePlan.validate`) plus windows staying
  inside their aggregator's file domain;
* :func:`check_window_consistency` — memoized ``window_pieces``,
  ``read_span`` and the vectorized ``membership`` table equal fresh
  recomputation, and every rank's bytes are fully scheduled;
* :func:`check_shuffle_accounting` — the closed-form wire-size formula
  used when enqueuing shuffle messages equals ``wire_size`` of the
  actual payload structure;
* :func:`check_translation` — :class:`~repro.core.plan_cache.PlanMemo`
  soundness: a claimed translation really is one, and the shifted plan
  still validates.

All raise :class:`~repro.errors.IOLayerError` with the failing
coordinate.  They run when ``REPRO_CHECK`` is on (see
:mod:`repro.flags`) and from ``python -m repro.check``'s runtime
smoke battery; they are never on the hot path otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..errors import IOLayerError
# The closed forms the send loops charge, defined once there.
from ..io.twophase import batch_wire_bytes, shuffle_wire_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataspace import RunList
    from ..io.twophase import TwoPhasePlan


def check_plan(plan: "TwoPhasePlan") -> None:
    """Structural invariants: coverage, non-overlap, domain containment."""
    plan.validate()
    for i, (d_lo, d_hi) in enumerate(plan.domains):
        for (w_lo, w_hi) in plan.windows[i]:
            if w_lo < d_lo or w_hi > d_hi:
                raise IOLayerError(
                    f"plan sanitizer: aggregator {i} window "
                    f"({w_lo}, {w_hi}) escapes its file domain "
                    f"({d_lo}, {d_hi})")


def check_window_consistency(plan: "TwoPhasePlan") -> None:
    """Memoized artifacts vs. fresh recomputation.

    * ``read_span(i, t)`` equals the tight extent of the global runs
      clipped to the window;
    * ``window_pieces(r, i, t)`` equals ``all_runs[r].clip(window)``;
    * ``membership[r, w]`` is true exactly when the pieces are
      non-empty;
    * summed over all windows, rank ``r``'s pieces cover exactly
      ``all_runs[r].total_bytes`` (every requested byte is shuffled
      once and only once).
    """
    scheduled = [0] * len(plan.all_runs)
    for i, windows in enumerate(plan.windows):
        for t, (w_lo, w_hi) in enumerate(windows):
            span = plan.read_span(i, t)
            fresh_span = plan.global_runs.clip(w_lo, w_hi).extent()
            if span != fresh_span:
                raise IOLayerError(
                    f"plan sanitizer: memoized read_span({i}, {t}) = "
                    f"{span} but fresh recomputation gives {fresh_span}")
            for r, runs in enumerate(plan.all_runs):
                pieces = plan.window_pieces(r, i, t)
                fresh = runs.clip(w_lo, w_hi)
                if pieces != fresh:
                    raise IOLayerError(
                        f"plan sanitizer: memoized window_pieces"
                        f"({r}, {i}, {t}) disagrees with a fresh clip of "
                        f"rank {r}'s runs to ({w_lo}, {w_hi})")
                member = plan.rank_in_window(r, i, t)
                if member != bool(len(pieces)):
                    raise IOLayerError(
                        f"plan sanitizer: membership[{r}, ({i}, {t})] is "
                        f"{member} but the window holds "
                        f"{len(pieces)} piece(s) of rank {r}")
                scheduled[r] += pieces.total_bytes
    for r, runs in enumerate(plan.all_runs):
        if scheduled[r] != runs.total_bytes:
            raise IOLayerError(
                f"plan sanitizer: rank {r} requested {runs.total_bytes} "
                f"bytes but the windows schedule {scheduled[r]}")


def check_shuffle_accounting(plan: "TwoPhasePlan") -> None:
    """Closed-form shuffle byte totals == actually-enqueued wire bytes.

    Rebuilds, for every (rank, window) shuffle message the aggregator
    loop would enqueue, the real payload structure (a list of
    ``(offset, uint8-array)`` pairs) and compares its recursive
    :func:`~repro.mpi.wire.wire_size` against the closed form the send
    loops use — the accounting PR 1's optimization relies on.
    """
    from ..mpi.wire import wire_size

    closed_total = 0
    wire_total = 0
    for i, windows in enumerate(plan.windows):
        for t in range(len(windows)):
            for r in plan.window_ranks(i, t):
                pieces = plan.window_pieces(r, i, t)
                payload = [(off, np.zeros(n, dtype=np.uint8))
                           for off, n in pieces]
                closed = shuffle_wire_bytes(pieces)
                actual = wire_size(payload)
                closed_total += closed
                wire_total += actual
                if closed != actual:
                    raise IOLayerError(
                        f"plan sanitizer: shuffle message for rank {r} in "
                        f"window ({i}, {t}) enqueues {closed} wire bytes "
                        f"(closed form) but the payload measures {actual}")
    if closed_total != wire_total:  # pragma: no cover - implied above
        raise IOLayerError(
            f"plan sanitizer: total shuffle accounting drifted "
            f"({closed_total} closed form vs {wire_total} measured)")


def check_two_level_schedule(plan: "TwoPhasePlan",
                             node_of: Callable[[int], int]) -> None:
    """Two-level (node-aware) shuffle schedule invariants.

    For every (aggregator, window), grouping the window's member ranks
    by node must partition exactly the one-level sender/receiver set —
    every rank lands in exactly one per-node batch, batches are
    non-empty, and the closed-form batch wire size matches a
    :func:`~repro.mpi.wire.wire_size` measurement of the real payload
    structure.  This is the contract between the two-level send loops,
    the leader relays and the flat-window tag scheme.
    """
    from ..mpi.wire import wire_size

    for i, windows in enumerate(plan.windows):
        for t in range(len(windows)):
            ranks = plan.window_ranks(i, t)
            by_node: dict = {}
            for r in ranks:
                by_node.setdefault(node_of(r), []).append(r)
            flat = [r for node in sorted(by_node)
                    for r in by_node[node]]
            if sorted(flat) != ranks:
                raise IOLayerError(
                    f"plan sanitizer: two-level batches for window "
                    f"({i}, {t}) cover ranks {sorted(flat)} but the "
                    f"window's member set is {ranks}")
            for node in sorted(by_node):
                members = by_node[node]
                if not members:  # pragma: no cover - defensive
                    raise IOLayerError(
                        f"plan sanitizer: empty two-level batch for node "
                        f"{node} in window ({i}, {t})")
                piece_lists = [plan.window_pieces(r, i, t)
                               for r in members]
                closed = batch_wire_bytes(piece_lists)
                payload = [(r, [(off, np.zeros(n, dtype=np.uint8))
                                for off, n in pieces])
                           for r, pieces in zip(members, piece_lists)]
                actual = wire_size(payload)
                if closed != actual:
                    raise IOLayerError(
                        f"plan sanitizer: two-level batch for node {node} "
                        f"in window ({i}, {t}) enqueues {closed} wire "
                        f"bytes (closed form) but measures {actual}")


def check_translation(base_runs: "RunList", runs: "RunList", delta: int,
                      shifted: "TwoPhasePlan") -> None:
    """:class:`~repro.core.plan_cache.PlanMemo` soundness for one reuse.

    The memo claims ``runs == base_runs.shift(delta)`` and answers with
    the base plan shifted by ``delta``; verify both the claim and that
    the shifted plan's own schedule still satisfies the structural
    invariants (a corrupted carried-over artifact would surface here).
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


def check_plan_deep(plan: "TwoPhasePlan") -> None:
    """Every plan sanitizer in one call (the ``REPRO_CHECK`` bundle)."""
    check_plan(plan)
    check_window_consistency(plan)
    check_shuffle_accounting(plan)


def check_memo(memo, runs: "RunList", plan: "TwoPhasePlan",
               delta: Optional[int]) -> None:
    """Validate one :class:`PlanMemo` decision (reuse or store)."""
    if delta is not None and memo.base_runs is not None:
        check_translation(memo.base_runs, runs, delta, plan)
    else:
        check_plan(plan)
