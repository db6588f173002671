"""Fault-tolerant two-phase and collective-computing protocols.

The resilient variants of :func:`repro.io.twophase.collective_read` and
:func:`repro.core.runtime.cc_read_compute` share one round-based
exchange engine (:func:`_resilient_exchange`):

* **Round 0** is the normal two-phase schedule: every aggregator serves
  its own plan windows.  Receivers use *timed* receives
  (``any_of(recv, timeout)`` + ``MPI_Cancel``) instead of blocking
  forever, so a crashed/straggling aggregator or a dropped shuffle
  message surfaces as a locally *missed window* rather than a deadlock.
* After each round every rank allgathers its missed-window list (the
  SPMD agreement — compare ULFM's post-failure agreement).  All ranks
  fold the same entries into the same shared view: which windows are
  missing, who missed them, and which servers are now suspect.
* **Failover rounds** deal the missed windows round-robin over the
  surviving aggregators.  Adopters serve them from the *original*
  :class:`~repro.io.twophase.TwoPhasePlan` artifacts
  (``read_span`` / ``window_pieces``) — adoption changes who serves a
  window, never its bytes — and send only to the ranks that actually
  missed it.
* When survivors fall below the policy's fraction (or the round budget
  runs out), the exchange **degrades**: each rank reads and maps its own
  still-missing pieces with independent I/O (plus bounded retry), which
  needs no aggregator at all.

Window payloads travel as ``(window key, payload)`` so late or
re-served duplicates are identified by key and never double-counted —
essential for the collective-computing path, where double-combining a
partial result would corrupt the reduction.

With an :class:`~repro.integrity.IntegrityManager` attached (wire
digests on), window messages instead travel as
``(key, payload, digest)`` and are verified on receive: a corrupted
payload is counted as *missed* — without indicting its server, which
demonstrably lives — and re-served next round under a fresh tag, so an
in-transit bit flip costs a repair round, never correctness.  The
agreement entries then carry ``(timeout missed, corrupt missed)``
pairs; the legacy single-list format (and its allgather bytes) is kept
bit-identical whenever integrity is off.

Only the data-plane tags of each round are registered as droppable with
the injector; agreement allgathers and degraded-mode gathers ride the
reliable control plane, so injected loss can delay recovery but never
wedge it.  Corruption obeys the same boundary: only droppable-tagged
payloads are ever flipped, so checksum verdicts cannot be forged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.metadata import CCStats, PartialResult
from ..core.map_engine import map_pieces
from ..core.object_io import ObjectIO
from ..core.reduction import (BLOCK_PARSE_COST, COMBINE_ELEMENT_COST,
                              combine_partials, construct_per_rank,
                              global_reduce)
from ..core.runtime import CCResult
from ..check.faults import check_recovery_coverage
from .. import flags
from ..errors import CollectiveComputingError, IOLayerError, RecoveryError
from ..io import AccessRequest
from ..io.hints import CollectiveHints
from ..io.requests import RunPlacer
from ..integrity.digest import partial_digest, payload_digest
from ..io.twophase import TwoPhasePlan, _extract_pieces, make_plan
from ..mpi import RankContext, collectives as coll
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .recovery import (RecoveryPolicy, WindowKey, assign_orphans,
                       degradation_needed, merge_missed, merge_missed_pairs,
                       read_with_retry)

#: ``make_payload`` callback: generator producing one destination's
#: payload for one window (maps CC pieces / extracts raw pieces).
PayloadFn = Callable[[RankContext, np.ndarray, int, WindowKey, int],
                     Generator]


def _plan_keys(plan: TwoPhasePlan) -> List[WindowKey]:
    """Every window key of the plan, in flat order."""
    return [(agg_idx, t)
            for agg_idx in range(len(plan.aggregators))
            for t in range(len(plan.windows[agg_idx]))]


def _serve_round(ctx: RankContext, file: PFSFile, plan: TwoPhasePlan,
                 assigned: List[Tuple[int, WindowKey]],
                 targets: Dict[WindowKey, List[int]], base_tag: int,
                 policy: RecoveryPolicy, round_index: int,
                 make_payload: PayloadFn) -> Generator:
    """One rank's serving side of one round: read each assigned window
    (with retry), build each target's payload, send.

    A crash injected for this (rank, round) stops serving at the drawn
    window; a read that exhausts its retries does the same (the rank's
    aggregation *role* fail-stops; the rank itself lives on to take part
    in the agreement)."""
    faults = getattr(ctx.machine, "faults", None)
    integ = getattr(ctx.machine, "integrity", None)
    wire_on = integ is not None and integ.config.wire_digests
    crash_at = (faults.crash_iteration(ctx.rank, len(assigned), round_index)
                if faults is not None else None)
    for k, (slot, key) in enumerate(assigned):
        if crash_at is not None and k >= crash_at:
            return None
        if faults is not None:
            delay = faults.straggle_delay(ctx.rank, slot, round_index)
            if delay > 0:
                yield ctx.kernel.timeout(delay)
        agg_idx, t = key
        r_lo, r_hi = plan.read_span(agg_idx, t)
        try:
            data = yield from read_with_retry(ctx, file, r_lo, r_hi - r_lo,
                                              policy.retry)
        except RecoveryError:
            if faults is not None:
                faults.record(
                    "recover:failover", f"rank{ctx.rank}",
                    f"window {key} read exhausted retries in round "
                    f"{round_index}; serving role stops (as a crash)")
            return None
        window_data = np.frombuffer(data, dtype=np.uint8)
        sends = []
        for dest in targets[key]:
            payload = yield from make_payload(ctx, window_data, r_lo, key,
                                              dest)
            wire = ((key, payload, payload_digest(payload)) if wire_on
                    else (key, payload))
            sends.append(ctx.comm.isend(wire, dest, base_tag + slot))
        for req in sends:
            yield from ctx.wait_recording(req.event, "wait")
    return None


def _take_window(ctx: RankContext, integ, msg, key: WindowKey,
                 got: Dict[WindowKey, Any]) -> bool:
    """Verify (when wire digests are on) and store one delivered window
    payload; returns ``True`` when the payload was corrupt in transit
    (detected, discarded, to be re-served next round)."""
    if integ is not None and integ.config.wire_digests:
        _rkey, payload, digest = msg.data
        if payload_digest(payload) != digest:
            integ.wire_detection(ctx.rank, msg.source, key, msg.tag)
            return True
    else:
        _rkey, payload = msg.data
    got[key] = payload
    return False


def _collect_round(ctx: RankContext, expect: List[Tuple[int, WindowKey]],
                   server_of: Dict[WindowKey, int], base_tag: int,
                   policy: RecoveryPolicy,
                   got: Dict[WindowKey, Any]) -> Generator:
    """One rank's receiving side of one round: timed receive per
    expected window; returns ``(timed out keys, corrupt keys)``.

    Once a server is suspect, its remaining windows this round are
    counted as missed without waiting out another timeout each — though
    with wire digests on, each skipped window is still *probed*
    (``irecv`` matches the unexpected queue synchronously), so a window
    the suspect delivered before stalling is examined rather than
    silently discarded.  A corrupt delivery does **not** indict its
    server: the message arrived, so the server lives; only timeouts
    feed the suspect set."""
    faults = getattr(ctx.machine, "faults", None)
    integ = getattr(ctx.machine, "integrity", None)
    wire_on = integ is not None and integ.config.wire_digests
    missed: List[WindowKey] = []
    corrupt: List[WindowKey] = []
    suspects: set = set()
    for slot, key in expect:
        src = server_of[key]
        if src in suspects:
            if wire_on:
                req = ctx.comm.irecv(src, base_tag + slot)
                # A synchronous match against the unexpected queue
                # triggers the event immediately (before the kernel
                # processes it), so probe `triggered`, not `complete`.
                if req.event.triggered:
                    if _take_window(ctx, integ, req.event.value, key, got):
                        corrupt.append(key)
                    continue
                req.cancel()
            missed.append(key)
            continue
        req = ctx.comm.irecv(src, base_tag + slot)
        yield ctx.kernel.any_of(
            [req.event, ctx.kernel.timeout(policy.read_timeout)])
        if req.complete and not req.cancelled:
            if _take_window(ctx, integ, req.event.value, key, got):
                corrupt.append(key)
        else:
            req.cancel()
            suspects.add(src)
            missed.append(key)
            if faults is not None:
                faults.record(
                    "recover:suspect", f"rank{ctx.rank}",
                    f"window {key} from rank {src} not delivered within "
                    f"{policy.read_timeout:g}s")
    return missed, corrupt


def _run_round(ctx: RankContext, file: PFSFile, plan: TwoPhasePlan,
               assigned: List[Tuple[int, WindowKey]],
               expect: List[Tuple[int, WindowKey]],
               targets: Dict[WindowKey, List[int]],
               server_of: Dict[WindowKey, int], base_tag: int,
               policy: RecoveryPolicy, round_index: int,
               make_payload: PayloadFn,
               got: Dict[WindowKey, Any]) -> Generator:
    """Run one rank's serving and receiving sides of a round
    concurrently; returns that rank's ``(timed out, corrupt)`` window
    key lists."""
    procs = []
    if assigned:
        procs.append(ctx.kernel.process(
            _serve_round(ctx, file, plan, assigned, targets, base_tag,
                         policy, round_index, make_payload),
            name=f"fserve:r{ctx.rank}.{round_index}"))
    recv_proc = None
    if expect:
        recv_proc = ctx.kernel.process(
            _collect_round(ctx, expect, server_of, base_tag, policy, got),
            name=f"fcollect:r{ctx.rank}.{round_index}")
        procs.append(recv_proc)
    if procs:
        yield ctx.kernel.all_of(procs)
    return recv_proc.value if recv_proc is not None else ([], [])


def _resilient_exchange(ctx: RankContext, file: PFSFile,
                        plan: TwoPhasePlan, policy: RecoveryPolicy,
                        make_payload: PayloadFn,
                        receivers_of: Callable[[WindowKey], List[int]],
                        timeline: Optional[PhaseTimeline] = None
                        ) -> Generator:
    """The round loop shared by the raw and CC resilient paths.

    Returns ``(got, missing, missed_by)``: the window payloads this rank
    received, plus — when the exchange degraded — the shared view of the
    windows nobody could serve collectively (for the caller to
    self-serve with independent I/O).
    """
    kernel = ctx.kernel
    faults = getattr(ctx.machine, "faults", None)
    integ = getattr(ctx.machine, "integrity", None)
    wire_on = integ is not None and integ.config.wire_digests
    all_keys: List[WindowKey] = _plan_keys(plan)
    n_aggs = len(plan.aggregators)
    server_of = {key: plan.aggregators[key[0]] for key in all_keys}
    slot_of = {key: plan.flat_index(*key) for key in all_keys}
    targets = {key: receivers_of(key) for key in all_keys}
    got: Dict[WindowKey, Any] = {}
    base_tag = ctx.comm.next_collective_tags(max(len(all_keys), 1))
    if faults is not None:
        faults.allow_drops(base_tag, base_tag + max(len(all_keys), 1))
    assigned = sorted((slot_of[k], k) for k in all_keys
                      if server_of[k] == ctx.rank)
    expect = sorted((slot_of[k], k) for k in all_keys
                    if ctx.rank in targets[k])
    missed, corrupt = yield from _run_round(ctx, file, plan, assigned,
                                            expect, targets, server_of,
                                            base_tag, policy, 0,
                                            make_payload, got)
    # The agreement payload only changes shape when wire digests are on,
    # keeping the legacy allgather bytes (and fig14 schedules) intact.
    if wire_on:
        entries = yield from coll.allgather(
            ctx.comm, (tuple(missed), tuple(corrupt)))
        missing, missed_by, timeouts = merge_missed_pairs(entries)
    else:
        entries = yield from coll.allgather(ctx.comm, tuple(missed))
        missing, missed_by = merge_missed(entries)
        timeouts = missing
    suspected: set = set()
    round_index = 0
    while missing:
        suspected |= {server_of[k] for k in timeouts}
        alive = [a for a in plan.aggregators if a not in suspected]
        round_index += 1
        if (round_index > policy.max_rounds or not alive
                or degradation_needed(len(alive), n_aggs,
                                      policy.min_aggregator_fraction)):
            if faults is not None and ctx.rank == 0:
                faults.record(
                    "recover:degraded", "job",
                    f"{len(alive)}/{n_aggs} aggregators alive after round "
                    f"{round_index - 1}; {len(missing)} window(s) fall "
                    f"back to independent I/O")
            return got, missing, missed_by
        if faults is not None and ctx.rank == alive[0]:
            faults.record(
                "recover:failover", "job",
                f"round {round_index}: {len(missing)} window(s) adopted "
                f"by {len(alive)} surviving aggregator(s)")
        assignment = assign_orphans(missing, alive)
        slot_of = {k: i for i, k in enumerate(missing)}
        targets = {k: missed_by[k] for k in missing}
        base_tag = ctx.comm.next_collective_tags(len(missing))
        if faults is not None:
            faults.allow_drops(base_tag, base_tag + len(missing))
        assigned = sorted((slot_of[k], k) for k in missing
                          if assignment[k] == ctx.rank)
        expect = sorted((slot_of[k], k) for k in missing
                        if ctx.rank in targets[k])
        t0 = kernel.now
        missed, corrupt = yield from _run_round(ctx, file, plan, assigned,
                                                expect, targets, assignment,
                                                base_tag, policy,
                                                round_index, make_payload,
                                                got)
        if timeline is not None and (assigned or expect):
            timeline.record(ctx.rank, round_index, "recovery", t0,
                            kernel.now)
        if wire_on:
            entries = yield from coll.allgather(
                ctx.comm, (tuple(missed), tuple(corrupt)))
            missing, missed_by, timeouts = merge_missed_pairs(entries)
        else:
            entries = yield from coll.allgather(ctx.comm, tuple(missed))
            missing, missed_by = merge_missed(entries)
            timeouts = missing
        server_of = assignment
    return got, [], {}


def _refuse_two_level(hints: CollectiveHints, where: str) -> None:
    """The round-based exchange has no node-leader routing: refuse
    ``two_level`` instead of silently running the one-level protocol."""
    if hints.two_level:
        raise IOLayerError(
            f"{where} does not support CollectiveHints(two_level=True): "
            "the resilient exchange (faults or integrity) runs one-level "
            "only; pass two_level=False")


# -- raw two-phase read -----------------------------------------------------
def resilient_collective_read(ctx: RankContext, file: PFSFile,
                              request: AccessRequest,
                              hints: Optional[CollectiveHints] = None,
                              policy: Optional[RecoveryPolicy] = None,
                              timeline: Optional[PhaseTimeline] = None
                              ) -> Generator:
    """Fault-tolerant :func:`~repro.io.twophase.collective_read`.

    Same contract — returns this rank's packed ``uint8`` buffer, bit
    identical to an independent read of ``request`` — but survives slow
    or failed OSTs, lost shuffle messages and crashed aggregators via
    the round-based exchange of this module.  Raises
    :class:`~repro.errors.IOLayerError` for ``hints.two_level``.
    """
    hints = hints or CollectiveHints()
    _refuse_two_level(hints, "resilient_collective_read")
    policy = policy or RecoveryPolicy()
    plan = yield from make_plan(ctx, request.runs, file, hints)

    def make_payload(ctx: RankContext, window_data: np.ndarray,
                     read_lo: int, key: WindowKey, dest: int) -> Generator:
        pieces = plan.window_pieces(dest, key[0], key[1])
        payload = _extract_pieces(window_data, read_lo, pieces)
        yield from ctx.memcpy(pieces.total_bytes)
        return payload

    def receivers_of(key: WindowKey) -> List[int]:
        return plan.window_ranks(key[0], key[1])

    got, missing, missed_by = yield from _resilient_exchange(
        ctx, file, plan, policy, make_payload, receivers_of, timeline)
    if flags.current().check:
        check_recovery_coverage(
            (k for k in _plan_keys(plan) if ctx.rank in receivers_of(k)),
            got,
            (k for k in missing if ctx.rank in missed_by.get(k, [])),
            f"resilient_collective_read rank {ctx.rank}")

    placer = RunPlacer(request.runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    for key, payload in got.items():
        nbytes = 0
        for off, piece in payload:
            n = len(piece)
            (start, _fo, _n), = placer.place(off, n)
            buf[start:start + n] = piece
            nbytes += n
        yield from ctx.memcpy(nbytes)
    # Degraded tail: read my own pieces of the unserved windows.
    t0 = ctx.kernel.now
    degraded = False
    for key in missing:
        if ctx.rank not in missed_by.get(key, []):
            continue
        pieces = plan.window_pieces(ctx.rank, key[0], key[1])
        if not len(pieces):
            continue
        degraded = True
        lo, hi = pieces.extent()
        data = yield from read_with_retry(ctx, file, lo, hi - lo,
                                          policy.retry)
        arr = np.frombuffer(data, dtype=np.uint8)
        for off, n in pieces:
            (start, _fo, _n), = placer.place(off, n)
            buf[start:start + n] = arr[off - lo:off - lo + n]
        yield from ctx.memcpy(pieces.total_bytes)
    if degraded and timeline is not None:
        timeline.record(ctx.rank, 0, "degraded", t0, ctx.kernel.now)
    return buf


# -- collective computing ---------------------------------------------------
def _stamp_partial(ctx: RankContext,
                   partial: Optional[PartialResult]
                   ) -> Optional[PartialResult]:
    """Stamp a freshly-mapped partial with its provenance digest (when
    integrity with reduce verification is attached) so the reducer can
    re-check it moments before combining — the last line of defence
    behind the wire digests."""
    integ = getattr(ctx.machine, "integrity", None)
    if (partial is None or integ is None
            or not integ.config.verify_reduce):
        return partial
    return replace(partial, digest=partial_digest(partial))


def _self_map_window(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                     plan: TwoPhasePlan, key: WindowKey,
                     policy: RecoveryPolicy,
                     stats: Optional[CCStats]) -> Generator:
    """Degraded mode: read and map this rank's own pieces of one
    unserved window (independent I/O + retry, no aggregator)."""
    agg_idx, t = key
    pieces = plan.window_pieces(ctx.rank, agg_idx, t)
    if not len(pieces):
        return None
    lo, hi = pieces.extent()
    data = yield from read_with_retry(ctx, file, lo, hi - lo, policy.retry)
    window_data = np.frombuffer(data, dtype=np.uint8)
    t0 = ctx.kernel.now
    partial, elements = map_pieces(oio.spec, oio.op, window_data, lo,
                                   pieces, ctx.rank, t)
    partial = _stamp_partial(ctx, partial)
    yield from ctx.compute(elements, oio.op.ops_per_element)
    if stats is not None and partial is not None:
        stats.add_partial(partial)
        stats.map_elements += elements
        stats.map_time += ctx.kernel.now - t0
    return partial


def resilient_cc_read_compute(ctx: RankContext, file: PFSFile,
                              oio: ObjectIO,
                              policy: Optional[RecoveryPolicy] = None,
                              timeline: Optional[PhaseTimeline] = None,
                              stats: Optional[CCStats] = None) -> Generator:
    """Fault-tolerant :func:`~repro.core.runtime.cc_read_compute`.

    Same contract and the same numbers — the reduction operators are
    associative and commutative and window payloads are deduplicated by
    window key, so recovery cannot change the result, only the time —
    but the pipeline survives injected OST, aggregator and message
    faults.  Both reduce modes are supported; partial results travel
    rank-addressed (no node-leader batching: per-window timed receives
    need an unambiguous server for each expected message), so
    ``oio.hints.two_level`` raises :class:`~repro.errors.IOLayerError`.
    """
    if oio.block:
        raise CollectiveComputingError(
            "resilient_cc_read_compute got block=True; use "
            "resilient_object_get, which dispatches automatically")
    _refuse_two_level(oio.hints, "resilient_cc_read_compute")
    policy = policy or RecoveryPolicy()
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    grid = (oio.spec.file_offset, oio.spec.itemsize)
    plan = yield from make_plan(ctx, request.runs, file, oio.hints, grid)
    op = oio.op
    all_to_all = oio.reduce_mode == "all_to_all"

    def make_payload(ctx: RankContext, window_data: np.ndarray,
                     read_lo: int, key: WindowKey, dest: int) -> Generator:
        agg_idx, t = key
        t0 = ctx.kernel.now
        if all_to_all:
            pieces = plan.window_pieces(dest, agg_idx, t)
            partial, elements = map_pieces(oio.spec, op, window_data,
                                           read_lo, pieces, dest, t)
            partial = _stamp_partial(ctx, partial)
            payload: Any = partial
            partials = [] if partial is None else [partial]
        else:
            partials = []
            elements = 0
            for r in plan.window_ranks(agg_idx, t):
                partial, n = map_pieces(oio.spec, op, window_data,
                                        read_lo,
                                        plan.window_pieces(r, agg_idx, t),
                                        r, t)
                if partial is not None:
                    partials.append(_stamp_partial(ctx, partial))
                    elements += n
            payload = partials
        yield from ctx.compute_parallel(elements, op.ops_per_element)
        if stats is not None:
            for p in partials:
                stats.add_partial(p)
            stats.map_elements += elements
            stats.map_time += ctx.kernel.now - t0
        return payload

    def receivers_of(key: WindowKey) -> List[int]:
        if all_to_all:
            return plan.window_ranks(key[0], key[1])
        return [oio.root]

    got, missing, missed_by = yield from _resilient_exchange(
        ctx, file, plan, policy, make_payload, receivers_of, timeline)
    if flags.current().check:
        if all_to_all:
            expected: List[WindowKey] = [
                k for k in _plan_keys(plan) if ctx.rank in receivers_of(k)]
            self_served: List[WindowKey] = [
                k for k in missing if ctx.rank in missed_by.get(k, [])]
        else:
            # all_to_one: the root expects every window; the degraded
            # gather below re-serves every missed one to it.
            expected = _plan_keys(plan) if ctx.rank == oio.root else []
            self_served = list(missing) if ctx.rank == oio.root else []
        check_recovery_coverage(
            expected, got, self_served,
            f"resilient_cc_read_compute rank {ctx.rank}")

    result = CCResult(stats=stats)
    if all_to_all:
        # Self-map the degraded windows into `got` first, then combine
        # in sorted window-key order — not arrival order, and not
        # "received then self-served": float reductions are
        # order-sensitive, and folding everything through one sorted
        # key sequence keeps the combine order (hence every output bit)
        # a pure function of the plan regardless of recovery history.
        t0 = ctx.kernel.now
        for key in missing:
            if ctx.rank in missed_by.get(key, []):
                got[key] = yield from _self_map_window(ctx, file, oio, plan,
                                                       key, policy, stats)
        if missing and timeline is not None:
            timeline.record(ctx.rank, 0, "degraded", t0, ctx.kernel.now)
        received = [got[k] for k in sorted(got) if got[k] is not None]
        payload = yield from combine_partials(ctx, op, received, stats)
        result.local = None if payload is None else op.finalize(payload)
        result.global_result = yield from global_reduce(ctx, op, payload,
                                                        oio.root, stats)
        return result

    # all_to_one: the root collected per-window partial batches; the
    # degraded tail gathers the unserved windows' partials straight from
    # their owner ranks over reliable tags.  Gathered partials are
    # re-ordered per window by plan rank order (the order an aggregator
    # would have produced them in), and windows fold in sorted key
    # order, so the root's construction order — and every output bit —
    # matches the fault-free run exactly.
    per_key: Dict[WindowKey, List[PartialResult]] = {}
    if ctx.rank == oio.root:
        for key, batch in got.items():
            per_key[key] = list(batch)
    base_tag = ctx.comm.next_collective_tags(max(len(missing), 1))
    for slot, key in enumerate(missing):
        members = plan.window_ranks(key[0], key[1])
        mine: Optional[PartialResult] = None
        if ctx.rank in members:
            mine = yield from _self_map_window(ctx, file, oio, plan,
                                               key, policy, stats)
            if ctx.rank != oio.root:
                yield from ctx.comm.send(mine, oio.root, base_tag + slot)
        if ctx.rank == oio.root:
            by_rank: Dict[int, PartialResult] = {}
            if mine is not None:
                by_rank[ctx.rank] = mine
            for r in members:
                if r == oio.root:
                    continue
                partial = yield from ctx.comm.recv(r, base_tag + slot)
                if partial is not None:
                    by_rank[r] = partial
            per_key[key] = [by_rank[r] for r in members if r in by_rank]
    received_all: List[PartialResult] = [
        p for key in sorted(per_key) for p in per_key[key]]
    if ctx.rank == oio.root:
        integ = getattr(ctx.machine, "integrity", None)
        if integ is not None:
            integ.verify_partials(ctx, received_all,
                                  f"rank {ctx.rank} root construct")
        t0 = ctx.kernel.now
        blocks = sum(len(p.blocks) for p in received_all)
        cost_units = (max(len(received_all), 1) * COMBINE_ELEMENT_COST
                      + blocks * BLOCK_PARSE_COST)
        yield from ctx.compute(cost_units, 1.0)
        per_rank_payloads = construct_per_rank(op, received_all)
        result.per_rank = {
            r: op.finalize(p) for r, p in sorted(per_rank_payloads.items())
        }
        if per_rank_payloads:
            result.global_result = op.finalize(
                op.combine_many(per_rank_payloads.values()))
        my_payload = per_rank_payloads.get(ctx.rank)
        result.local = (None if my_payload is None
                        else op.finalize(my_payload))
        if stats is not None:
            stats.local_reduction_time += ctx.kernel.now - t0
    return result


# -- traditional / independent baselines ------------------------------------
def _independent_read_with_retry(ctx: RankContext, file: PFSFile,
                                 request: AccessRequest,
                                 policy: RecoveryPolicy) -> Generator:
    """Per-run independent read with bounded retry; returns the packed
    buffer (the resilient twin of :func:`repro.io.independent_read`)."""
    placer = RunPlacer(request.runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    for off, n in request.runs:
        data = yield from read_with_retry(ctx, file, off, n, policy.retry)
        (start, _fo, _n), = placer.place(off, n)
        buf[start:start + n] = np.frombuffer(data, dtype=np.uint8)
        yield from ctx.memcpy(n)
    return buf


def resilient_traditional_read_compute(ctx: RankContext, file: PFSFile,
                                       oio: ObjectIO,
                                       policy: Optional[RecoveryPolicy]
                                       = None,
                                       timeline: Optional[PhaseTimeline]
                                       = None,
                                       stats: Optional[CCStats] = None
                                       ) -> Generator:
    """Fault-tolerant baseline: complete the (resilient) I/O, then
    compute, then reduce — the recoverable twin of
    :func:`repro.core.api.traditional_read_compute`."""
    from ..core.map_engine import linear_indices_of_runs

    policy = policy or RecoveryPolicy()
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    if oio.mode == "collective":
        buf = yield from resilient_collective_read(ctx, file, request,
                                                   oio.hints, policy,
                                                   timeline)
    else:
        buf = yield from _independent_read_with_retry(ctx, file, request,
                                                      policy)
    payload = None
    if request.nbytes:
        values = buf.view(oio.spec.dtype)
        indices = (linear_indices_of_runs(oio.spec, request.runs)
                   if oio.op.needs_indices else None)
        t0 = ctx.kernel.now
        payload = oio.op.map_chunk(values, indices)
        yield from ctx.compute(values.size, oio.op.ops_per_element)
        if stats is not None:
            stats.map_elements += values.size
            stats.map_time += ctx.kernel.now - t0
        if timeline is not None:
            timeline.record(ctx.rank, 0, "compute", t0, ctx.kernel.now)
    result = CCResult(stats=stats)
    result.local = None if payload is None else oio.op.finalize(payload)
    result.global_result = yield from global_reduce(ctx, oio.op, payload,
                                                    oio.root, stats)
    return result


def resilient_object_get(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                         policy: Optional[RecoveryPolicy] = None,
                         timeline: Optional[PhaseTimeline] = None,
                         stats: Optional[CCStats] = None) -> Generator:
    """Fault-tolerant :func:`repro.core.api.object_get`: the same
    dispatch rules, each path replaced by its resilient twin.

    ``block=True`` (or ``mode="independent"``) runs the recoverable
    traditional path; ``block=False, mode="collective"`` runs the
    resilient collective-computing pipeline.  Either collective path
    raises :class:`~repro.errors.IOLayerError` for
    ``oio.hints.two_level``.
    """
    if oio.block or oio.mode == "independent":
        result = yield from resilient_traditional_read_compute(
            ctx, file, oio, policy, timeline, stats)
    else:
        result = yield from resilient_cc_read_compute(ctx, file, oio,
                                                      policy, timeline,
                                                      stats)
    return result
