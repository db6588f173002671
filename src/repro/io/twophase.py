"""Two-phase collective I/O (the ROMIO protocol the paper modifies).

Collective read, step by step (write is the mirror image):

1. **Offset-list exchange** — every rank flattens its request and the
   run lists are allgathered (ROMIO's ``ADIOI_Calc_others_req``),
   charged on the network by their real metadata size.
2. **File domains** — the combined extent is split evenly (optionally
   stripe-aligned) across the aggregator ranks.
3. **Iterations** — each aggregator sweeps the requested part of its
   domain in collective-buffer-size windows.  Per window it issues one
   contiguous PFS read (first to last needed byte) and then *shuffles*:
   sends every rank the pieces of that rank's request found in the
   window.  With ``hints.pipeline`` the next window's read is posted
   before the current shuffle — the nonblocking two-phase variant whose
   profile is the paper's Figure 1.
4. Receivers unpack arriving pieces into their packed local buffer.

Every read path iterates its windows through one reader,
:func:`read_windows` (the paths differ only in the per-window handler),
and every raw-byte shuffle message leaves through :func:`shuffle_send`.

The protocol moves *real* bytes; the result is numerically identical to
an independent read of the same request.
"""

from __future__ import annotations

import operator
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .. import flags
from ..dataspace import RunList, merge_runlists
from ..errors import IOLayerError
from ..mpi import RankContext, collectives as coll
from ..mpi.comm import NodeSplit, Request
from ..mpi.wire import wire_size
from ..obs import metrics
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .aggregation import (iteration_windows, partition_file_domains,
                          select_aggregators)
from .hints import CollectiveHints
from .requests import AccessRequest, RunPlacer
from .independent import RetryPolicy, read_with_retry

#: Closed form of :func:`~repro.mpi.wire.wire_size` for raw shuffle
#: messages: a payload (or batch) list; one ``(offset, piece)`` pair
#: before its bytes; one two-level batch entry ``(rank, payload)``; the
#: resilient ``((agg, t), payload)`` wrapper (a wire digest adds 4).
PAYLOAD_OVERHEAD_BYTES = 16
PIECE_HEADER_BYTES = 24
BATCH_ENTRY_BYTES = 24
WINDOW_KEY_BYTES = 48


def shuffle_wire_bytes(pieces: RunList) -> int:
    """Closed-form wire size of the shuffle payload carrying ``pieces``."""
    return (PAYLOAD_OVERHEAD_BYTES + PIECE_HEADER_BYTES * len(pieces)
            + pieces.total_bytes)


def batch_wire_bytes(piece_lists: Iterable[RunList]) -> int:
    """Closed-form wire size of a two-level batch: one ``(rank,
    payload)`` entry per rank's pieces."""
    return PAYLOAD_OVERHEAD_BYTES + sum(
        BATCH_ENTRY_BYTES + shuffle_wire_bytes(pieces)
        for pieces in piece_lists)


def shuffle_send(ctx: RankContext, payload, dest: int, tag: int,
                 nbytes: int, what: str) -> Request:
    """Start one raw-byte shuffle send charged at its closed-form size
    ``nbytes``, which ``REPRO_CHECK`` compares with ``wire_size`` of the
    real payload (``what`` names the message) — the one check of the
    shuffle closed forms.  With metrics on, the hop counts into
    ``io.shuffle_bytes`` and its intra-/inter-node split, which
    :mod:`repro.obs.report` checks sum to the total."""
    check = flags.current().check
    m = metrics.current()
    if check or m is not None:
        measured = wire_size(payload)
        if check and nbytes != measured:
            raise IOLayerError(
                f"{what} wire-size accounting drifted: closed form "
                f"{nbytes} != measured {measured} for rank {ctx.rank} -> "
                f"{dest}, tag {tag}")
        if m is not None:
            comm = ctx.comm.comm
            m.count("io.shuffle_bytes", nbytes)
            m.count("io.shuffle_bytes_measured", measured)
            prefix = ("io.intranode_bytes"
                      if comm.node_of(ctx.rank) == comm.node_of(dest)
                      else "io.internode_bytes")
            m.count(prefix, nbytes)
            m.count(prefix + "_measured", measured)
    return ctx.comm.isend(payload, dest, tag, nbytes=nbytes)


@dataclass(frozen=True)
class TwoPhasePlan:
    """The deterministic schedule every rank derives after the offset
    exchange: aggregators, their file domains, and per-aggregator
    iteration windows.

    Shared derived artifacts (:attr:`global_runs`, the flattened window
    arrays and the receiver-schedule :attr:`membership` table) are
    computed lazily once per plan and reused by every rank's aggregator
    and receiver loops, instead of being re-derived per (rank, window)
    with O(P²·windows) ``RunList.clip`` calls.
    """

    all_runs: List[RunList]
    aggregators: List[int]
    domains: List[Tuple[int, int]]
    windows: List[List[Tuple[int, int]]]

    @property
    def ntimes(self) -> int:
        """Global iteration count (max over aggregators)."""
        return max((len(w) for w in self.windows), default=0)

    @cached_property
    def _agg_pos(self) -> Dict[int, int]:
        return {a: i for i, a in enumerate(self.aggregators)}

    def aggregator_index(self, rank: int) -> Optional[int]:
        """Position of ``rank`` in the aggregator list, or None."""
        return self._agg_pos.get(rank)

    # -- shared derived artifacts -----------------------------------------
    @cached_property
    def global_runs(self) -> RunList:
        """Union of every rank's runs (ROMIO's global offset list),
        merged once per plan instead of inside every aggregator loop."""
        return merge_runlists(self.all_runs)

    @cached_property
    def global_runs_strict(self) -> RunList:
        """Like :attr:`global_runs` but rejecting overlapping requests
        (the collective-write correctness rule)."""
        return merge_runlists(self.all_runs, allow_overlap=False)

    @cached_property
    def _flat_windows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, Tuple[int, ...]]:
        """Every (aggregator, iteration) window flattened in
        ``(aggregator, t)`` order: ``(agg_idx, t, lo, hi, agg_base)``
        arrays, where ``agg_base[i]`` is aggregator ``i``'s first flat
        index."""
        aggs: List[int] = []
        ts: List[int] = []
        lows: List[int] = []
        highs: List[int] = []
        base: List[int] = []
        pos = 0
        for i, ws in enumerate(self.windows):
            base.append(pos)
            for t, (lo, hi) in enumerate(ws):
                aggs.append(i)
                ts.append(t)
                lows.append(lo)
                highs.append(hi)
            pos += len(ws)
        return (np.asarray(aggs, dtype=np.int64),
                np.asarray(ts, dtype=np.int64),
                np.asarray(lows, dtype=np.int64),
                np.asarray(highs, dtype=np.int64),
                tuple(base))

    def flat_index(self, agg_idx: int, t: int) -> int:
        """Flat window index of iteration ``t`` of aggregator ``agg_idx``."""
        return self._flat_windows[4][agg_idx] + t

    @cached_property
    def membership(self) -> np.ndarray:
        """The receiver schedule: ``bool[nranks, n_flat_windows]`` — does
        rank ``r`` request bytes inside flat window ``w``?

        Built once per plan with vectorized ``searchsorted`` over all
        window boundaries; equivalent to (but far cheaper than) testing
        ``len(all_runs[r].clip(lo, hi))`` per (rank, window) pair.
        """
        _aggs, _ts, lows, highs, _base = self._flat_windows
        member = np.zeros((len(self.all_runs), lows.size), dtype=bool)
        if lows.size:
            for r, rl in enumerate(self.all_runs):
                if not len(rl):
                    continue
                ends = rl.offsets + rl.lengths
                first = np.searchsorted(ends, lows, side="right")
                last = np.searchsorted(rl.offsets, highs, side="left")
                member[r] = last > first
        return member

    def rank_in_window(self, rank: int, agg_idx: int, t: int) -> bool:
        """Whether ``rank`` has requested bytes in window ``t`` of
        aggregator ``agg_idx``."""
        return bool(self.membership[rank, self.flat_index(agg_idx, t)])

    def window_ranks(self, agg_idx: int, t: int) -> List[int]:
        """Ranks (ascending) with requested bytes in one window."""
        col = self.membership[:, self.flat_index(agg_idx, t)]
        return [int(r) for r in np.flatnonzero(col)]

    def window_pieces(self, rank: int, agg_idx: int, t: int) -> RunList:
        """``all_runs[rank]`` clipped to window ``t`` of aggregator
        ``agg_idx``, memoized per plan — the traditional shuffle, the
        collective-computing map loop and the write path all clip the
        same (rank, window) pairs against the same immutable run lists."""
        cache = self.__dict__.setdefault("_window_pieces", {})
        key = (rank, agg_idx, t)
        pieces = cache.get(key)
        if pieces is None:
            lo, hi = self.windows[agg_idx][t]
            pieces = cache[key] = self.all_runs[rank].clip(lo, hi)
        return pieces

    def read_span(self, agg_idx: int, t: int) -> Tuple[int, int]:
        """Tight ``[first, last)`` byte span of requested data inside
        window ``t`` of aggregator ``agg_idx`` — what one collective
        buffer read must fetch.  Memoized per plan (windows are trimmed,
        so the span always exists)."""
        cache = self.__dict__.setdefault("_read_spans", {})
        key = (agg_idx, t)
        span = cache.get(key)
        if span is None:
            lo, hi = self.windows[agg_idx][t]
            span = cache[key] = self.global_runs.clip(lo, hi).extent()
        return span

    @cached_property
    def rank_agg_matrix(self) -> np.ndarray:
        """``bool[nranks, naggs]`` — does rank ``r`` request bytes in
        *any* window of aggregator ``i``?  The two-level CC staging
        flow table: aggregator ``i`` produces a partial for ``r`` iff
        this is true, so every leader derives which nodes exchange
        staged batches without any extra communication."""
        _aggs, _ts, _lo, _hi, base = self._flat_windows
        mat = np.zeros((len(self.all_runs), len(self.aggregators)),
                       dtype=bool)
        for i in range(len(self.aggregators)):
            nw = len(self.windows[i])
            if nw:
                mat[:, i] = self.membership[:, base[i]:base[i] + nw].any(
                    axis=1)
        return mat

    def receiver_schedule(self, rank: int) -> List[Tuple[int, int]]:
        """``(t, aggregator_rank)`` pairs for every window holding data
        of ``rank``, ordered by iteration then aggregator position — the
        deterministic order the two-phase receiver loop posts receives
        in."""
        aggs, ts, _lo, _hi, _base = self._flat_windows
        mine = np.flatnonzero(self.membership[rank])
        if not mine.size:
            return []
        order = np.lexsort((aggs[mine], ts[mine]))
        sel = mine[order]
        return [(int(ts[w]), self.aggregators[int(aggs[w])]) for w in sel]

    def shifted(self, delta: int) -> "TwoPhasePlan":
        """The plan for a byte-translated access: every run list, domain
        and window moved by ``delta`` bytes.  Aggregator assignment is
        unchanged, and the receiver schedule — invariant under a rigid
        translation — is carried over instead of being rebuilt."""
        new = TwoPhasePlan(
            all_runs=[rl.shift(delta) for rl in self.all_runs],
            aggregators=list(self.aggregators),
            domains=[(lo + delta, hi + delta) for lo, hi in self.domains],
            windows=[[(lo + delta, hi + delta) for lo, hi in ws]
                     for ws in self.windows],
        )
        if "membership" in self.__dict__:
            new.__dict__["membership"] = self.__dict__["membership"]
        if "global_runs" in self.__dict__:
            new.__dict__["global_runs"] = self.global_runs.shift(delta)
        return new

    def validate(self) -> None:
        """Check the schedule invariants every consumer relies on.

        * windows are sorted, non-overlapping, non-empty per aggregator;
        * every window lies inside its aggregator's file domain;
        * every requested byte falls inside exactly one window;
        * no window holds bytes nobody requested beyond its bounds.

        Raises :class:`~repro.errors.IOLayerError` on violation.  Run by
        :func:`repro.check.plan.check_plan` and by tests.
        """
        global_runs = self.global_runs
        covered = 0
        all_windows: List[Tuple[int, int]] = []
        for i, windows in enumerate(self.windows):
            d_lo, d_hi = self.domains[i]
            prev_hi = None
            for (lo, hi) in windows:
                if hi <= lo:
                    raise IOLayerError(
                        f"aggregator {i}: empty window ({lo}, {hi})")
                if lo < d_lo or hi > d_hi:
                    raise IOLayerError(
                        f"aggregator {i}: window ({lo}, {hi}) escapes its "
                        f"file domain ({d_lo}, {d_hi})")
                if prev_hi is not None and lo < prev_hi:
                    raise IOLayerError(
                        f"aggregator {i}: windows overlap or unsorted")
                prev_hi = hi
                inside = global_runs.clip(lo, hi)
                if not len(inside):
                    raise IOLayerError(
                        f"aggregator {i}: window ({lo}, {hi}) holds no data")
                covered += inside.total_bytes
                all_windows.append((lo, hi))
        all_windows.sort()
        for (a_lo, a_hi), (b_lo, b_hi) in zip(all_windows, all_windows[1:]):
            if b_lo < a_hi:
                raise IOLayerError(
                    f"windows ({a_lo},{a_hi}) and ({b_lo},{b_hi}) overlap "
                    f"across aggregators")
        if covered != global_runs.total_bytes:
            raise IOLayerError(
                f"windows cover {covered} of {global_runs.total_bytes} "
                f"requested bytes")


#: Memoized plan derivations a communicator may hold before the least
#: recently used is evicted.  The memo never skips the (simulated)
#: offset-list exchange — it only avoids re-deriving the identical
#: schedule on every rank — so event order and simulated timings are
#: unaffected.
PLAN_CACHE_CAPACITY = 32

_PLAN_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _plan_cache_for(comm) -> "OrderedDict":
    """The plan memo of one communicator (job scope: it dies with the
    communicator, and machine topology / rank count are fixed within
    it, so they need not appear in cache keys)."""
    cache = _PLAN_CACHES.get(comm)
    if cache is None:
        cache = OrderedDict()
        _PLAN_CACHES[comm] = cache
    return cache


def _same_runs(a: List[RunList], b: List[RunList]) -> bool:
    """Exact equality check guarding against signature collisions.  The
    common case is object identity: within one collective call the
    allgather hands every rank references to the same RunList objects,
    so an all-identical pair is settled at C level first."""
    return all(map(operator.is_, a, b)) or all(
        x is y or (np.array_equal(x.offsets, y.offsets)
                   and np.array_equal(x.lengths, y.lengths))
        for x, y in zip(a, b)
    )


def derive_plan(machine, nprocs: int, all_runs: List[RunList],
                file: PFSFile, hints: CollectiveHints,
                grid: Optional[Tuple[int, int]] = None) -> TwoPhasePlan:
    """Pure (communication-free) plan derivation from the allgathered
    run lists — the work :func:`make_plan` memoizes."""
    global_runs = merge_runlists(all_runs)
    ext = global_runs.extent()
    aggregators = select_aggregators(machine, nprocs,
                                     hints.aggregators_per_node)
    if ext is None:
        return TwoPhasePlan(all_runs, aggregators,
                            [(0, 0)] * len(aggregators),
                            [[] for _ in aggregators])
    domains = partition_file_domains(ext, len(aggregators),
                                     file.layout.stripe_size, grid)
    windows = [
        iteration_windows(dom, global_runs, hints.cb_buffer_size, grid)
        for dom in domains
    ]
    plan = TwoPhasePlan(all_runs, aggregators, domains, windows)
    plan.__dict__["global_runs"] = global_runs
    if flags.current().check:
        from ..check.plan import check_plan
        check_plan(plan)
    return plan


def _offset_exchange(ctx: RankContext, my_runs: RunList,
                     hints: CollectiveHints) -> Generator:
    """The offset-list exchange: every rank ends up with every rank's
    run list, world-rank indexed.

    One-level (the default) is ROMIO's flat allgather.  With
    ``hints.two_level`` the lists are staged through one leader per
    node: gather onto the leader over the intra-node communicator, an
    allgather among leaders only, then an intra-node broadcast — so
    only per-node message *aggregates* cross the network instead of
    P×(P−1) individual lists.  Both paths return identical data.
    """
    if not hints.two_level or ctx.size == 1:
        all_runs: List[RunList] = yield from coll.allgather(ctx.comm, my_runs)
        return all_runs
    ns = yield from ctx.comm.node_split()
    node_lists = yield from coll.gather(ns.node_comm, my_runs, root=0)
    merged: Optional[List[RunList]] = None
    if ns.leader_comm is not None:
        per_node = yield from coll.allgather(
            ns.leader_comm, (tuple(ns.node_ranks), tuple(node_lists)))
        merged = [None] * ctx.size  # type: ignore[list-item]
        for ranks, lists in per_node:
            for r, rl in zip(ranks, lists):
                merged[r] = rl
    all_runs = yield from coll.bcast(ns.node_comm, merged, root=0)
    return all_runs


def make_plan(ctx: RankContext, my_runs: RunList, file: PFSFile,
              hints: CollectiveHints,
              grid: Optional[Tuple[int, int]] = None) -> Generator:
    """Exchange offset lists and derive the (identical-everywhere)
    two-phase schedule.  Collective: all ranks must call it.

    ``grid`` (``(base, step)``) aligns domain and window boundaries to
    an element grid — required by collective computing, where the map
    must see whole elements (plain byte-level I/O leaves it ``None``).

    The offset exchange is always simulated; the *derivation* of the
    schedule from the exchanged lists is memoized per communicator (all
    ranks derive the identical plan from the identical inputs, and
    experiment loops repeat identical requests), keyed by the run-list
    signatures, hints, grid and the file's stripe size.  Ranks holding the
    very RunList objects of the newest entry (all but the first rank
    of one collective) match it by identity, so no rank pays P
    signature lookups after the first.
    """
    all_runs: List[RunList] = yield from _offset_exchange(ctx, my_runs, hints)
    stripe = file.layout.stripe_size
    cache = _plan_cache_for(ctx.comm.comm)
    if cache:
        # Within one collective every rank holds the same RunList
        # objects, so once the first rank has stored (or refreshed) the
        # newest entry, the other P-1 ranks match it by identity
        # without building a P-signature key.
        key, (cached_runs, plan) = next(reversed(cache.items()))
        if (all(map(operator.is_, cached_runs, all_runs))
                and key[1:] == (hints, grid, stripe)):
            return plan
    key = (tuple(rl.signature() for rl in all_runs), hints, grid, stripe)
    hit = cache.get(key)
    if hit is not None:
        cached_runs, plan = hit
        if _same_runs(cached_runs, all_runs):
            cache.move_to_end(key)
            # Re-point the entry at this collective's lists so the
            # other ranks take the identity path above.
            cache[key] = (all_runs, plan)
            return plan
    plan = derive_plan(ctx.machine, ctx.size, all_runs, file, hints, grid)
    cache[key] = (all_runs, plan)
    while len(cache) > PLAN_CACHE_CAPACITY:
        cache.popitem(last=False)
    return plan


def _extract_pieces(window_data: np.ndarray, window_lo: int,
                    pieces: RunList) -> List[Tuple[int, np.ndarray]]:
    """Slice per-rank pieces out of an aggregator's window buffer."""
    out = []
    for off, n in pieces:
        lo = off - window_lo
        out.append((off, window_data[lo:lo + n]))
    return out


def read_windows(ctx: RankContext, file: PFSFile,
                 spans: Sequence[Tuple[int, int]], pipeline: bool,
                 handle: Callable[[int, int, np.ndarray], Generator],
                 timeline: Optional[PhaseTimeline] = None,
                 retry: RetryPolicy = RetryPolicy()) -> Generator:
    """The window read loop of every read path: read each ``[lo, hi)``
    of ``spans`` with :func:`~repro.io.independent.read_with_retry` as
    its own process, record its ``read`` phase and run ``handle(t, lo,
    window_bytes)`` inline.  With ``pipeline`` the next read is posted
    before the handler runs (the I/O thread of the paper's Figure 7),
    else after it.  A read out of retries raises its
    :class:`~repro.errors.RecoveryError` here, no other read in flight.
    """
    kernel = ctx.kernel

    def post(t: int):
        lo, hi = spans[t]
        read = kernel.process(read_with_retry(ctx, file, lo, hi - lo, retry),
                              name=f"cbread:r{ctx.rank}@{lo}")
        # A read-ahead may fail before it is waited for: raise its error
        # at the wait below, not from the kernel.
        read.defuse()
        return read

    pending = post(0) if spans else None
    for t, (lo, _hi) in enumerate(spans):
        t0 = kernel.now
        data = yield from ctx.wait_recording(pending)
        if timeline is not None:
            timeline.record(ctx.rank, t, "read", t0, kernel.now)
        more = t + 1 < len(spans)
        if pipeline and more:
            pending = post(t + 1)
        yield from handle(t, lo, np.frombuffer(data, dtype=np.uint8))
        if more and not pipeline:
            pending = post(t + 1)
    return None


def _aggregator_read_loop(ctx: RankContext, file: PFSFile,
                          plan: TwoPhasePlan, agg_idx: int, base_tag: int,
                          hints: CollectiveHints,
                          timeline: Optional[PhaseTimeline],
                          ns: Optional[NodeSplit] = None) -> Generator:
    """The aggregator side of a collective read: read windows, shuffle
    pieces to their requesting ranks.

    One-level (``ns=None``): one message per requesting rank per window,
    tagged ``base_tag + t``.  Two-level: the per-rank payloads of one
    window are batched per destination *node* and sent to that node's
    leader, tagged ``base_tag + flat_index`` (flat-window tags keep
    every (source, tag) pair unique once leaders multiplex traffic).
    """
    kernel = ctx.kernel
    comm = ctx.comm.comm

    def shuffle(t: int, read_lo: int, window_data: np.ndarray) -> Generator:
        t1 = kernel.now
        sends = []
        copy_bytes = 0
        by_node: Dict[int, List[Tuple[int, list]]] = {}
        for r in plan.window_ranks(agg_idx, t):
            pieces = plan.window_pieces(r, agg_idx, t)
            payload = _extract_pieces(window_data, read_lo, pieces)
            copy_bytes += pieces.total_bytes
            if ns is None:
                sends.append(shuffle_send(ctx, payload, r, base_tag + t,
                                          shuffle_wire_bytes(pieces),
                                          "read shuffle"))
            else:
                by_node.setdefault(comm.node_of(r), []).append((r, payload))
        for node in sorted(by_node):
            batch = by_node[node]
            sends.append(shuffle_send(
                ctx, batch, comm.node_leader(node),
                base_tag + plan.flat_index(agg_idx, t),
                batch_wire_bytes(plan.window_pieces(r, agg_idx, t)
                                 for r, _payload in batch),
                "two-level read batch"))
        yield from ctx.memcpy(copy_bytes)
        for req in sends:
            yield from ctx.wait_recording(req.event)
        if timeline is not None:
            timeline.record(ctx.rank, t, "shuffle", t1, kernel.now)

    spans = [plan.read_span(agg_idx, t)
             for t in range(len(plan.windows[agg_idx]))]
    yield from read_windows(ctx, file, spans, hints.pipeline, shuffle,
                            timeline)
    return None


def _unpack_pieces(placer: RunPlacer, buf: np.ndarray, pieces) -> int:
    """Unpack one shuffle payload into the packed local buffer; returns
    the byte count.  One payload carries the receiver's runs clipped to
    a contiguous file window, and the packed buffer is in file order —
    so the pieces land in a single contiguous span of the buffer."""
    if not pieces:
        return 0
    first_off, first_piece = pieces[0]
    (start, _fo, _n), = placer.place(first_off, len(first_piece))
    pos = start
    for _off, piece in pieces:
        n = len(piece)
        buf[pos:pos + n] = piece
        pos += n
    return pos - start


def _receiver_loop(ctx: RankContext, plan: TwoPhasePlan, my_runs: RunList,
                   base_tag: int, ns: Optional[NodeSplit] = None) -> Generator:
    """The receiver side: collect pieces, unpack into the packed local
    buffer.  Returns the buffer.

    One-level: one message per (window, aggregator) pair, straight from
    the aggregator.  Two-level members receive the same payloads from
    their node leader (at flat-window tags); two-level leaders run the
    relay in :func:`_leader_read_relay`, peeling their own payloads out
    of the per-node batches they forward.
    """
    placer = RunPlacer(my_runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    if ns is not None and ns.is_leader:
        yield from _leader_read_relay(ctx, plan, ns, base_tag, placer, buf)
        return buf
    # Deterministic schedule: which aggregator sends to me at iteration
    # t — precomputed once per plan from the membership table.
    for t, agg_rank in plan.receiver_schedule(ctx.rank):
        if ns is None:
            req = ctx.comm.irecv(agg_rank, base_tag + t)
        else:
            w = plan.flat_index(plan.aggregator_index(agg_rank), t)
            req = ctx.comm.irecv(ns.leader, base_tag + w)
        msg = yield from ctx.wait_recording(req.event)
        nbytes = _unpack_pieces(placer, buf, msg.data)
        yield from ctx.memcpy(nbytes)
    return buf


def _leader_read_relay(ctx: RankContext, plan: TwoPhasePlan, ns: NodeSplit,
                       base_tag: int, placer: RunPlacer,
                       buf: np.ndarray) -> Generator:
    """The node leader's side of a two-level read shuffle: receive each
    per-node batch, keep this rank's own payload, forward the rest to
    the requesting co-located ranks (an intra-node hop)."""
    node_any = plan.membership[ns.node_ranks].any(axis=0)
    for i, agg_rank in enumerate(plan.aggregators):
        for t in range(len(plan.windows[i])):
            w = plan.flat_index(i, t)
            if not node_any[w]:
                continue
            tag = base_tag + w
            req = ctx.comm.irecv(agg_rank, tag)
            msg = yield from ctx.wait_recording(req.event)
            forwards = []
            for r, payload in msg.data:
                if r == ctx.rank:
                    nbytes = _unpack_pieces(placer, buf, payload)
                    yield from ctx.memcpy(nbytes)
                    continue
                forwards.append(shuffle_send(
                    ctx, payload, r, tag,
                    shuffle_wire_bytes(plan.window_pieces(r, i, t)),
                    "two-level forward"))
            for fwd in forwards:
                yield from ctx.wait_recording(fwd.event)
    return None


def collective_read(ctx: RankContext, file: PFSFile, request: AccessRequest,
                    hints: Optional[CollectiveHints] = None,
                    timeline: Optional[PhaseTimeline] = None,
                    plan: Optional[TwoPhasePlan] = None) -> Generator:
    """Two-phase collective read of ``request``.

    Collective over the whole communicator.  Returns this rank's packed
    ``uint8`` buffer (convert with :meth:`AccessRequest.as_array`).

    ``plan`` short-circuits the offset exchange with a pre-computed
    schedule (see :class:`repro.core.plan_cache.PlanMemo`); the caller
    is responsible for its consistency across ranks.
    """
    hints = hints or CollectiveHints()
    if plan is None:
        plan = yield from make_plan(ctx, request.runs, file, hints)
    ns, base_tag = yield from _shuffle_setup(ctx, plan, hints)
    agg_idx = plan.aggregator_index(ctx.rank)
    procs = []
    if agg_idx is not None and plan.windows[agg_idx]:
        procs.append(ctx.kernel.process(
            _aggregator_read_loop(ctx, file, plan, agg_idx, base_tag,
                                  hints, timeline, ns),
            name=f"agg:r{ctx.rank}",
        ))
    recv_proc = ctx.kernel.process(
        _receiver_loop(ctx, plan, request.runs, base_tag, ns),
        name=f"recv:r{ctx.rank}",
    )
    procs.append(recv_proc)
    yield ctx.kernel.all_of(procs)
    return recv_proc.value


def _shuffle_setup(ctx: RankContext, plan: TwoPhasePlan,
                   hints: CollectiveHints) -> Generator:
    """Common two-phase shuffle preamble: resolve the (cached) node
    split when two-level mode is on and reserve the shuffle tag block —
    ``ntimes`` tags one-level, one tag per flat window two-level (leader
    multiplexing needs unique (source, tag) pairs per window)."""
    ns: Optional[NodeSplit] = None
    if hints.two_level and ctx.size > 1:
        ns = yield from ctx.comm.node_split()
        n_tags = sum(len(ws) for ws in plan.windows)
    else:
        n_tags = plan.ntimes
    base_tag = ctx.comm.next_collective_tags(max(n_tags, 1))
    return ns, base_tag


def collective_write(ctx: RankContext, file: PFSFile, request: AccessRequest,
                     data: np.ndarray,
                     hints: Optional[CollectiveHints] = None,
                     timeline: Optional[PhaseTimeline] = None) -> Generator:
    """Two-phase collective write: ranks shuffle their pieces to the
    aggregators, which assemble windows and write them out.

    ``data`` is the rank's packed element buffer matching ``request``.
    Unlike ROMIO we write the (coalesced) requested runs instead of
    read-modify-writing whole windows; with non-overlapping requests the
    result is identical and the simulated cost slightly optimistic for
    hole-ridden writes.
    """
    hints = hints or CollectiveHints()
    flat = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    if flat.nbytes != request.nbytes:
        raise IOLayerError(
            f"data has {flat.nbytes} bytes, request wants {request.nbytes}"
        )
    plan = yield from make_plan(ctx, request.runs, file, hints)
    ns, base_tag = yield from _shuffle_setup(ctx, plan, hints)
    agg_idx = plan.aggregator_index(ctx.rank)
    procs = [ctx.kernel.process(
        _writer_send_loop(ctx, plan, request.runs, flat, base_tag, ns),
        name=f"wsend:r{ctx.rank}",
    )]
    if agg_idx is not None and plan.windows[agg_idx]:
        procs.append(ctx.kernel.process(
            _aggregator_write_loop(ctx, file, plan, agg_idx, base_tag,
                                   timeline, ns),
            name=f"wagg:r{ctx.rank}",
        ))
    yield ctx.kernel.all_of(procs)
    return None


def _build_write_payload(plan: TwoPhasePlan, placer: RunPlacer,
                         flat: np.ndarray, rank: int, agg_idx: int,
                         t: int) -> Tuple[list, int]:
    """One rank's write-shuffle payload for one window: ``(offset,
    piece)`` pairs sliced out of the packed buffer, plus the data byte
    count."""
    pieces = plan.window_pieces(rank, agg_idx, t)
    payload = []
    nbytes = 0
    for off, n in pieces:
        local, _fo, _cov = placer.place(off, n)[0]
        payload.append((off, flat[local:local + n]))
        nbytes += n
    return payload, nbytes


def _writer_send_loop(ctx: RankContext, plan: TwoPhasePlan, my_runs: RunList,
                      flat: np.ndarray, base_tag: int,
                      ns: Optional[NodeSplit] = None) -> Generator:
    """Send my pieces of each (aggregator, iteration) window.

    One-level: straight to the aggregator, tagged ``base_tag + t``.
    Two-level members send the identical payloads to their node leader
    (flat-window tags); two-level leaders instead run
    :func:`_leader_write_relay`, which folds their own payloads into
    the per-node batches.
    """
    placer = RunPlacer(my_runs)
    if ns is not None and ns.is_leader:
        yield from _leader_write_relay(ctx, plan, ns, placer, flat, base_tag)
        return None
    for i, agg_rank in enumerate(plan.aggregators):
        for t, (w_lo, w_hi) in enumerate(plan.windows[i]):
            if not plan.rank_in_window(ctx.rank, i, t):
                continue
            payload, nbytes = _build_write_payload(plan, placer, flat,
                                                   ctx.rank, i, t)
            yield from ctx.memcpy(nbytes)
            if ns is None:
                dest, tag = agg_rank, base_tag + t
            else:
                dest, tag = ns.leader, base_tag + plan.flat_index(i, t)
            yield shuffle_send(
                ctx, payload, dest, tag,
                shuffle_wire_bytes(plan.window_pieces(ctx.rank, i, t)),
                "write shuffle").event
    return None


def _leader_write_relay(ctx: RankContext, plan: TwoPhasePlan, ns: NodeSplit,
                        placer: RunPlacer, flat: np.ndarray,
                        base_tag: int) -> Generator:
    """The node leader's side of a two-level write shuffle: collect the
    co-located ranks' payloads for each window (building its own
    in-place), batch them per window and send one message per
    (window, node) to the aggregator."""
    member = plan.membership
    for i, agg_rank in enumerate(plan.aggregators):
        for t in range(len(plan.windows[i])):
            w = plan.flat_index(i, t)
            senders = [r for r in ns.node_ranks if member[r, w]]
            if not senders:
                continue
            batch = []
            for r in senders:
                if r == ctx.rank:
                    payload, nb = _build_write_payload(plan, placer, flat,
                                                       r, i, t)
                    yield from ctx.memcpy(nb)
                else:
                    payload = yield from ctx.comm.recv(r, base_tag + w)
                batch.append((r, payload))
            yield shuffle_send(
                ctx, batch, agg_rank, base_tag + w,
                batch_wire_bytes(plan.window_pieces(r, i, t) for r in senders),
                "two-level write batch").event
    return None


def _aggregator_write_loop(ctx: RankContext, file: PFSFile,
                           plan: TwoPhasePlan, agg_idx: int, base_tag: int,
                           timeline: Optional[PhaseTimeline],
                           ns: Optional[NodeSplit] = None) -> Generator:
    """Receive pieces for each window, assemble, write coalesced runs.

    Two-level mode receives one batch per sending *node* (from its
    leader) instead of one message per sending rank; the assembled
    window bytes are identical either way.
    """
    global_runs = plan.global_runs_strict
    kernel = ctx.kernel
    comm = ctx.comm.comm
    for t, (w_lo, w_hi) in enumerate(plan.windows[agg_idx]):
        needed = global_runs.clip(w_lo, w_hi)
        r_lo, r_hi = needed.extent()
        window = np.zeros(r_hi - r_lo, dtype=np.uint8)
        senders = plan.window_ranks(agg_idx, t)
        t0 = kernel.now
        if ns is None:
            for r in senders:
                req = ctx.comm.irecv(r, base_tag + t)
                msg = yield from ctx.wait_recording(req.event)
                nbytes = 0
                for off, piece in msg.data:
                    window[off - r_lo:off - r_lo + len(piece)] = piece
                    nbytes += len(piece)
                yield from ctx.memcpy(nbytes)
        else:
            tag = base_tag + plan.flat_index(agg_idx, t)
            for node in sorted({comm.node_of(r) for r in senders}):
                req = ctx.comm.irecv(comm.node_leader(node), tag)
                msg = yield from ctx.wait_recording(req.event)
                nbytes = 0
                for _r, payload in msg.data:
                    for off, piece in payload:
                        window[off - r_lo:off - r_lo + len(piece)] = piece
                        nbytes += len(piece)
                yield from ctx.memcpy(nbytes)
        if timeline is not None:
            timeline.record(ctx.rank, t, "shuffle", t0, kernel.now)
        t1 = kernel.now
        writes = []
        for off, n in needed:
            writes.append(kernel.process(
                ctx.fs.write(file, off,
                             window[off - r_lo:off - r_lo + n].tobytes(),
                             client=ctx.node.index),
                name=f"cbwrite:r{ctx.rank}@{off}",
            ))
        yield from ctx.wait_recording(kernel.all_of(writes))
        if timeline is not None:
            timeline.record(ctx.rank, t, "write", t1, kernel.now)
    return None
