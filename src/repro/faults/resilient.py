"""Fault-tolerant two-phase and collective-computing protocols.

The resilient variants of :func:`repro.io.twophase.collective_read` and
:func:`repro.core.runtime.cc_read_compute` share one round-based
exchange engine (:func:`_resilient_exchange`):

* **Round 0** is the normal two-phase schedule: every aggregator serves
  its own plan windows through the shared window reader
  (:func:`repro.io.twophase.read_windows`, reading ahead under
  ``hints.pipeline`` like the fault-free paths).  Receivers use *timed*
  receives (``any_of(recv, timeout)`` + ``MPI_Cancel``; a receive that
  wins withdraws its timer) instead of blocking forever, so a
  crashed/straggling aggregator or a dropped shuffle message surfaces
  as a locally *missed window* rather than a deadlock.
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
partial result would corrupt the reduction.  Raw-byte windows leave
through the two-phase shuffle choke point
(:func:`repro.io.twophase.shuffle_send`), so their closed-form size is
checked and accounted like every other raw shuffle message.

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

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.api import compute_after_read
from ..core.metadata import CCStats, PartialResult
from ..core.object_io import ObjectIO
from ..core.reduction import combine_partials, global_reduce
from ..core.runtime import CCResult, construct_at_root, map_window
from ..check.faults import check_recovery_coverage
from .. import flags
from ..errors import CollectiveComputingError, IOLayerError, RecoveryError
from ..io import AccessRequest, independent_read
from ..io.hints import CollectiveHints
from ..io.requests import RunPlacer
from ..io.independent import read_with_retry
from ..integrity.digest import DIGEST_NBYTES, payload_digest
from ..io.twophase import (WINDOW_KEY_BYTES, TwoPhasePlan, _extract_pieces,
                           _unpack_pieces, make_plan, read_windows,
                           shuffle_send, shuffle_wire_bytes)
from ..mpi import RankContext, collectives as coll
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .recovery import (RecoveryPolicy, WindowKey, assign_orphans,
                       degradation_needed, merge_missed, merge_missed_pairs)


def _plan_keys(plan: TwoPhasePlan) -> List[WindowKey]:
    """Every window key of the plan, in flat order."""
    return [(agg_idx, t)
            for agg_idx in range(len(plan.aggregators))
            for t in range(len(plan.windows[agg_idx]))]


def _serve_round(ctx: RankContext, file: PFSFile, plan: TwoPhasePlan,
                 assigned: List[Tuple[int, WindowKey]],
                 targets: Dict[WindowKey, List[int]], base_tag: int,
                 policy: RecoveryPolicy, round_index: int, pipeline: bool,
                 make_payload: Callable[..., Generator]) -> Generator:
    """One rank's serving side of one round: read each assigned window
    through the shared reader (retrying under ``policy.retry``, reading
    ahead when ``pipeline``), build each target's payload, send.

    A crash injected for this (rank, round) stops serving at the drawn
    window; a read that exhausts its retries does the same (the rank's
    aggregation *role* fail-stops; the rank itself lives on to take part
    in the agreement).  An injected straggle stalls the window's
    handler before it sends."""
    faults = ctx.machine.faults
    wire_on = ctx.machine.integrity is not None
    wrapper = WINDOW_KEY_BYTES + (DIGEST_NBYTES if wire_on else 0)
    crash_at = (faults.crash_iteration(ctx.rank, len(assigned), round_index)
                if faults is not None else None)
    if crash_at is not None:
        assigned = assigned[:crash_at]
    served = 0

    def serve(k: int, read_lo: int, window_data: np.ndarray) -> Generator:
        nonlocal served
        slot, key = assigned[k]
        tag = base_tag + slot
        if faults is not None:
            delay = faults.straggle_delay(ctx.rank, slot, round_index)
            if delay > 0:
                yield ctx.kernel.timeout(delay)
        sends = []
        for dest in targets[key]:
            payload, closed = yield from make_payload(ctx, window_data,
                                                      read_lo, key, dest)
            wire = ((key, payload, payload_digest(payload)) if wire_on
                    else (key, payload))
            sends.append(ctx.comm.isend(wire, dest, tag) if closed is None
                         else shuffle_send(ctx, wire, dest, tag,
                                           wrapper + closed,
                                           "resilient window"))
        for req in sends:
            yield from ctx.wait_recording(req.event)
        served = k + 1

    try:
        yield from read_windows(ctx, file,
                                [plan.read_span(*key) for _s, key in assigned],
                                pipeline, serve, retry=policy.retry)
    except RecoveryError:
        if faults is not None:
            faults.record(
                "recover:failover", f"rank{ctx.rank}",
                f"window {assigned[served][1]} read exhausted retries in "
                f"round {round_index}; serving role stops (as a crash)")
    return None


def _take_window(ctx: RankContext, integ, msg, key: WindowKey,
                 got: Dict[WindowKey, Any]) -> bool:
    """Verify (when integrity is attached) and store one delivered window
    payload; returns ``True`` when the payload was corrupt in transit
    (detected, discarded, to be re-served next round)."""
    if integ is not None:
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
    faults = ctx.machine.faults
    integ = ctx.machine.integrity
    missed: List[WindowKey] = []
    corrupt: List[WindowKey] = []
    suspects: set = set()
    for slot, key in expect:
        src = server_of[key]
        if src in suspects:
            if integ is not None:
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
        timer = ctx.kernel.timeout(policy.read_timeout)
        yield ctx.kernel.any_of([req.event, timer])
        if req.complete and not req.cancelled:
            timer.cancel()
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


def _resilient_exchange(ctx: RankContext, file: PFSFile,
                        plan: TwoPhasePlan, policy: RecoveryPolicy,
                        pipeline: bool,
                        make_payload: Callable[..., Generator],
                        receivers_of: Callable[[WindowKey], List[int]],
                        timeline: Optional[PhaseTimeline] = None
                        ) -> Generator:
    """The round loop shared by the raw and CC resilient paths: serve
    and receive concurrently, then agree.  Servers read ahead when
    ``pipeline``; ``make_payload(ctx, window_bytes, read_lo, key, dest)``
    returns ``(payload, closed)``, ``closed`` being the closed-form wire
    size of raw bytes (sent through the shuffle choke point) or ``None``.

    Returns ``(got, missing, missed_by)``: the window payloads this rank
    received, plus — when the exchange degraded — the shared view of the
    windows nobody could serve collectively (for the caller to
    self-serve with independent I/O).  Under ``REPRO_CHECK`` the two
    must cover the rank's expected windows exactly once.
    """
    kernel = ctx.kernel
    faults = ctx.machine.faults
    wire_on = ctx.machine.integrity is not None
    # The windows one round serves: every plan window in round 0, the
    # agreed missing ones in each failover round.
    keys: List[WindowKey] = _plan_keys(plan)
    n_aggs = len(plan.aggregators)
    server_of = {key: plan.aggregators[key[0]] for key in keys}
    slot_of = {key: plan.flat_index(*key) for key in keys}
    targets = {key: receivers_of(key) for key in keys}
    got: Dict[WindowKey, Any] = {}
    suspected: set = set()
    round_index = 0
    while True:
        base_tag = ctx.comm.next_collective_tags(max(len(keys), 1))
        if faults is not None:
            faults.allow_drops(base_tag, base_tag + max(len(keys), 1))
        assigned = sorted((slot_of[k], k) for k in keys
                          if server_of[k] == ctx.rank)
        expect = sorted((slot_of[k], k) for k in keys
                        if ctx.rank in targets[k])
        t0 = kernel.now
        procs = []
        if assigned:
            procs.append(kernel.process(
                _serve_round(ctx, file, plan, assigned, targets, base_tag,
                             policy, round_index, pipeline, make_payload),
                name=f"fserve:r{ctx.rank}.{round_index}"))
        recv_proc = None
        if expect:
            recv_proc = kernel.process(
                _collect_round(ctx, expect, server_of, base_tag, policy,
                               got),
                name=f"fcollect:r{ctx.rank}.{round_index}")
            procs.append(recv_proc)
        if procs:
            yield kernel.all_of(procs)
        missed, corrupt = (recv_proc.value if recv_proc is not None
                           else ([], []))
        if round_index and timeline is not None and (assigned or expect):
            timeline.record(ctx.rank, round_index, "recovery", t0,
                            kernel.now)
        # The agreement payload only changes shape when wire digests are
        # on, keeping the legacy allgather bytes (and fig14 schedules).
        if wire_on:
            entries = yield from coll.allgather(
                ctx.comm, (tuple(missed), tuple(corrupt)))
            keys, missed_by, timeouts = merge_missed_pairs(entries)
        else:
            entries = yield from coll.allgather(ctx.comm, tuple(missed))
            keys, missed_by = merge_missed(entries)
            timeouts = keys
        if not keys:
            break
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
                    f"{round_index - 1}; {len(keys)} window(s) fall "
                    f"back to independent I/O")
            break
        if faults is not None and ctx.rank == alive[0]:
            faults.record(
                "recover:failover", "job",
                f"round {round_index}: {len(keys)} window(s) adopted "
                f"by {len(alive)} surviving aggregator(s)")
        server_of = assign_orphans(keys, alive)
        slot_of = {k: i for i, k in enumerate(keys)}
        targets = {k: missed_by[k] for k in keys}
    if flags.current().check:
        check_recovery_coverage(
            (k for k in _plan_keys(plan) if ctx.rank in receivers_of(k)),
            got, (k for k in keys if ctx.rank in missed_by.get(k, [])),
            f"resilient exchange rank {ctx.rank}")
    return got, keys, missed_by


def _refuse_two_level(hints: CollectiveHints, where: str) -> None:
    """The round-based exchange has no node-leader routing: refuse
    ``two_level`` instead of silently running the one-level protocol."""
    if hints.two_level:
        raise IOLayerError(
            f"{where} does not support CollectiveHints(two_level=True): "
            "the resilient exchange (faults or integrity) runs one-level "
            "only; pass two_level=False")


def _refuse_local(oio: ObjectIO) -> None:
    """Refuse local analysis-in-I/O, which has no resilient twin, rather
    than silently run the read-everything-then-compute protocol."""
    if oio.mode == "independent" and not oio.block:
        raise CollectiveComputingError(
            "resilient_object_get does not support ObjectIO(mode="
            "'independent', block=False): local analysis-in-I/O has no "
            "resilient variant; pass block=True for the recoverable "
            "read-then-compute path")


def _read_own_pieces(ctx: RankContext, file: PFSFile, plan: TwoPhasePlan,
                     key: WindowKey, policy: RecoveryPolicy) -> Generator:
    """Degraded mode: read this rank's own pieces of one unserved window
    (independent I/O with retry); ``(pieces, lo, bytes)`` or ``None``."""
    pieces = plan.window_pieces(ctx.rank, key[0], key[1])
    if not len(pieces):
        return None
    lo, hi = pieces.extent()
    data = yield from read_with_retry(ctx, file, lo, hi - lo, policy.retry)
    return pieces, lo, np.frombuffer(data, dtype=np.uint8)


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
        return payload, shuffle_wire_bytes(pieces)

    def receivers_of(key: WindowKey) -> List[int]:
        return plan.window_ranks(key[0], key[1])

    got, missing, missed_by = yield from _resilient_exchange(
        ctx, file, plan, policy, hints.pipeline, make_payload, receivers_of,
        timeline)

    placer = RunPlacer(request.runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    for payload in got.values():
        yield from ctx.memcpy(_unpack_pieces(placer, buf, payload))
    # Degraded tail: read my own pieces of the unserved windows.
    t0 = ctx.kernel.now
    degraded = False
    for key in missing:
        if ctx.rank not in missed_by.get(key, []):
            continue
        own = yield from _read_own_pieces(ctx, file, plan, key, policy)
        if own is None:
            continue
        degraded = True
        pieces, lo, data = own
        yield from ctx.memcpy(_unpack_pieces(
            placer, buf, _extract_pieces(data, lo, pieces)))
    if degraded and timeline is not None:
        timeline.record(ctx.rank, 0, "degraded", t0, ctx.kernel.now)
    return buf


# -- collective computing ---------------------------------------------------
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
        ranks = [dest] if all_to_all else plan.window_ranks(agg_idx, t)
        partials = yield from map_window(
            ctx, oio, window_data, read_lo,
            [(r, plan.window_pieces(r, agg_idx, t)) for r in ranks], t,
            stats)
        return (partials[0] if all_to_all else partials), None

    def self_map(key: WindowKey) -> Generator:
        """Degraded mode: read and map my pieces of an unserved window."""
        own = yield from _read_own_pieces(ctx, file, plan, key, policy)
        if own is None:
            return None
        pieces, lo, data = own
        partials = yield from map_window(ctx, oio, data, lo,
                                         [(ctx.rank, pieces)], key[1],
                                         stats, fan_out=False)
        return partials[0]

    def receivers_of(key: WindowKey) -> List[int]:
        if all_to_all:
            return plan.window_ranks(key[0], key[1])
        return [oio.root]

    got, missing, missed_by = yield from _resilient_exchange(
        ctx, file, plan, policy, oio.hints.pipeline, make_payload,
        receivers_of, timeline)
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
                got[key] = yield from self_map(key)
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
    per_key: Dict[WindowKey, List[PartialResult]] = (
        dict(got) if ctx.rank == oio.root else {})
    base_tag = ctx.comm.next_collective_tags(max(len(missing), 1))
    for slot, key in enumerate(missing):
        members = plan.window_ranks(key[0], key[1])
        mine: Optional[PartialResult] = None
        if ctx.rank in members:
            mine = yield from self_map(key)
            if ctx.rank != oio.root:
                yield from ctx.comm.send(mine, oio.root, base_tag + slot)
        if ctx.rank == oio.root:
            per_key[key] = []
            for r in members:
                partial = (mine if r == ctx.rank else
                           (yield from ctx.comm.recv(r, base_tag + slot)))
                if partial is not None:
                    per_key[key].append(partial)
    if ctx.rank == oio.root:
        result = yield from construct_at_root(
            ctx, op, [p for key in sorted(per_key) for p in per_key[key]],
            stats)
    return result


# -- traditional / independent baselines ------------------------------------
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
    :func:`repro.core.api.traditional_read_compute`, sharing its
    after-read compute (:func:`repro.core.api.compute_after_read`).
    Independent mode reads every run under ``policy.retry``."""
    policy = policy or RecoveryPolicy()
    request = AccessRequest.from_subarray(oio.spec, oio.sub)
    if oio.mode == "collective":
        buf = yield from resilient_collective_read(ctx, file, request,
                                                   oio.hints, policy,
                                                   timeline)
    else:
        buf = yield from independent_read(ctx, file, request, policy.retry)
    result = yield from compute_after_read(ctx, oio, request, buf, timeline,
                                           stats)
    return result


def resilient_object_get(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                         policy: Optional[RecoveryPolicy] = None,
                         timeline: Optional[PhaseTimeline] = None,
                         stats: Optional[CCStats] = None) -> Generator:
    """Fault-tolerant :func:`repro.core.api.object_get`: the same
    dispatch rules, each path replaced by its resilient twin.

    ``block=True`` runs the recoverable traditional path (two-phase or
    independent reads, per ``oio.mode``); ``block=False,
    mode="collective"`` runs the resilient collective-computing
    pipeline.  ``block=False, mode="independent"`` (local
    analysis-in-I/O) has no resilient twin and raises
    :class:`~repro.errors.CollectiveComputingError`.  Either collective
    path raises :class:`~repro.errors.IOLayerError` for
    ``oio.hints.two_level``.
    """
    _refuse_local(oio)
    if oio.block:
        result = yield from resilient_traditional_read_compute(
            ctx, file, oio, policy, timeline, stats)
    else:
        result = yield from resilient_cc_read_compute(ctx, file, oio,
                                                      policy, timeline,
                                                      stats)
    return result
