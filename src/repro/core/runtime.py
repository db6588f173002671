"""The collective-computing runtime (paper §III and Figure 7).

This is the modified two-phase pipeline: each aggregator iteration

1. reads its collective-buffer window (with ``hints.pipeline`` the
   next read is posted before the map — the finer-grained nonblocking
   design of Figure 7),
2. **maps** every rank's pieces of the window on logical subsets
   (computation happens *inside* the I/O, on the data just read),
3. shuffles only the small partial results (+ logical metadata),

after which the analysis stage collapses to combining partials
(§III-C): local reduces on each rank (all-to-all mode) or construction
on the root (all-to-one mode), then a final tree reduce.

The raw data never travels: compared to
:func:`repro.io.twophase.collective_read`, the shuffle volume drops
from the full request size to ``stats.shuffle_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..dataspace import RunList
from ..errors import CollectiveComputingError
from ..integrity.digest import partial_digest
from ..io import AccessRequest
from ..io.twophase import TwoPhasePlan, make_plan, read_windows
from ..mpi import RankContext
from ..mpi.comm import NodeSplit
from ..pfs import PFSFile
from ..profiling import PhaseTimeline
from .map_engine import map_pieces
from .metadata import CCStats, PartialResult
from .object_io import ObjectIO
from .ops import MapReduceOp
from .reduction import (BLOCK_PARSE_COST, COMBINE_ELEMENT_COST,
                        combine_partials,
                        construct_per_rank, global_reduce)


@dataclass
class CCResult:
    """What a collective-computing call returns on each rank.

    Attributes
    ----------
    local:
        The finalized result over *this rank's* region (all-to-all mode;
        ``None`` for empty regions and in all-to-one mode on non-roots).
    global_result:
        The finalized result over the union of all regions; present on
        the root rank only.
    per_rank:
        All-to-one mode, root only: finalized per-rank results.
    stats:
        The shared :class:`CCStats` accumulator for the run.
    """

    local: Any = None
    global_result: Any = None
    per_rank: Optional[Dict[int, Any]] = None
    stats: Optional[CCStats] = None


def map_window(ctx: RankContext, oio: ObjectIO, window_data: np.ndarray,
               read_lo: int, members: Iterable[Tuple[int, RunList]],
               t: int, stats: Optional[CCStats],
               timeline: Optional[PhaseTimeline] = None,
               fan_out: bool = True) -> Generator:
    """The one map step: map each ``(rank, pieces)`` of window ``t``
    (bytes from file offset ``read_lo``), record the ``map`` phase and
    return the partials.

    Partials get provenance digests when the machine has an integrity
    manager attached.  CPU is charged as an aggregator's
    fan-out over its node's idle cores (Figure 7's worker threads) or,
    with ``fan_out=False``, on the rank's own core."""
    t0 = ctx.kernel.now
    op = oio.op
    stamp = ctx.machine.integrity is not None
    partials: List[PartialResult] = []
    elements = 0
    for r, pieces in members:
        partial, n = map_pieces(oio.spec, op, window_data, read_lo, pieces,
                                r, t)
        if partial is not None:
            partials.append(replace(partial, digest=partial_digest(partial))
                            if stamp else partial)
            elements += n
    charge = ctx.compute_parallel if fan_out else ctx.compute
    yield from charge(elements, op.ops_per_element)
    if stats is not None:
        for p in partials:
            stats.add_partial(p)
        stats.map_elements += elements
        stats.map_time += ctx.kernel.now - t0
    if timeline is not None:
        timeline.record(ctx.rank, t, "map", t0, ctx.kernel.now)
    return partials


def construct_at_root(ctx: RankContext, op: MapReduceOp,
                      partials: List[PartialResult],
                      stats: Optional[CCStats]) -> Generator:
    """All-to-one root (paper §III-C): verify stamped partials when
    integrity is attached, then build and charge every per-rank result
    and the global one.  Returns the root's :class:`CCResult`."""
    integ = ctx.machine.integrity
    if integ is not None:
        integ.verify_partials(ctx, partials, f"rank {ctx.rank} root construct")
    t0 = ctx.kernel.now
    blocks = sum(len(p.blocks) for p in partials)
    yield from ctx.compute(max(len(partials), 1) * COMBINE_ELEMENT_COST
                           + blocks * BLOCK_PARSE_COST, 1.0)
    per_rank = construct_per_rank(op, partials)
    if stats is not None:
        stats.local_reduction_time += ctx.kernel.now - t0
    result = CCResult(stats=stats, per_rank={
        r: op.finalize(p) for r, p in sorted(per_rank.items())})
    if per_rank:
        result.global_result = op.finalize(op.combine_many(per_rank.values()))
    mine = per_rank.get(ctx.rank)
    result.local = None if mine is None else op.finalize(mine)
    return result


def _merge_partial_pair(op: MapReduceOp, a: PartialResult,
                        b: PartialResult) -> PartialResult:
    """Node-local pre-combine of two partials for the same destination
    (two-level CC mode): payloads combine with the reduction op, logical
    blocks concatenate, and the merged record is re-sized.  Only valid
    for :attr:`~repro.core.ops.MapReduceOp.reassociable` operators —
    the caller gates on that — so the final result is bit-identical to
    shipping the partials separately."""
    if a.dest_rank != b.dest_rank:  # pragma: no cover - defensive
        raise CollectiveComputingError(
            f"cannot merge partials for ranks {a.dest_rank} and "
            f"{b.dest_rank}")
    payload = op.combine(a.payload, b.payload)
    return PartialResult(
        dest_rank=a.dest_rank,
        iteration=min(a.iteration, b.iteration),
        blocks=a.blocks + b.blocks,
        payload=payload,
        payload_nbytes=op.partial_nbytes(payload),
        digest=None,
    )


def _fold_partials(op: MapReduceOp, merged: Dict[int, PartialResult],
                   partials) -> int:
    """Fold ``partials`` into the per-destination accumulator ``merged``
    in place; returns the number of combines performed (for CPU-cost
    accounting)."""
    folds = 0
    for p in partials:
        acc = merged.get(p.dest_rank)
        if acc is None:
            merged[p.dest_rank] = p
        else:
            merged[p.dest_rank] = _merge_partial_pair(op, acc, p)
            folds += 1
    return folds


def _cc_aggregator_loop(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                        plan: TwoPhasePlan, agg_idx: int, base_tag: int,
                        timeline: Optional[PhaseTimeline],
                        stats: Optional[CCStats],
                        staging: Optional[tuple] = None) -> Generator:
    """Aggregator side: read window -> map pieces -> shuffle partials.

    With ``staging=(ns, stage_tag)`` (two-level mode) the per-window
    shuffle is replaced by node-local pre-combining: partials are held
    back, merged per destination rank across all of this aggregator's
    windows, and sent as one staged batch to the node leader — only the
    already-combined records ever cross the network."""
    my_windows = plan.windows[agg_idx]
    kernel = ctx.kernel
    pipeline = oio.hints.pipeline
    op = oio.op
    window_partials: List[Optional[List[PartialResult]]] = (
        [None] * len(my_windows) if staging is not None else [])
    workers = []

    def map_and_shuffle(t: int, read_lo: int,
                        window_data: np.ndarray) -> Generator:
        """Worker thread (paper Fig. 7): map the window on its logical
        subsets, then shuffle the partial results.  Runs concurrently
        with the I/O thread's next read; the node's core resource
        arbitrates compute between overlapping windows."""
        partials = yield from map_window(
            ctx, oio, window_data, read_lo,
            ((r, plan.window_pieces(r, agg_idx, t))
             for r in plan.window_ranks(agg_idx, t)), t, stats, timeline)
        if staging is not None:
            # Two-level mode: hold the window's partials back for the
            # cross-window pre-combine; nothing is sent per window.
            window_partials[t] = partials
            return None
        t_sh = kernel.now
        sends = []
        if oio.reduce_mode == "all_to_all":
            # The runtime coalesces partials per destination *node* and
            # lets the node's leader redistribute over shared memory —
            # partials are tiny, so one batch per node keeps the shuffle
            # off the per-message latency wall at scale.  (ROMIO's raw
            # shuffle sends per-process messages; it moves whole pieces,
            # so batching would not shrink its bytes.)
            comm = ctx.comm.comm
            by_node: Dict[int, List[PartialResult]] = {}
            for partial in partials:
                node = comm.node_of(partial.dest_rank)
                by_node.setdefault(node, []).append(partial)
            for node, batch in by_node.items():
                sends.append(ctx.comm.isend(batch, comm.node_leader(node),
                                            base_tag + t))
        else:  # all_to_one: one message with every partial of the window
            sends.append(ctx.comm.isend(partials, oio.root, base_tag + t))
        for req in sends:
            yield from ctx.wait_recording(req.event)
        if timeline is not None:
            timeline.record(ctx.rank, t, "shuffle", t_sh, kernel.now)
        return None

    def spawn(t: int, read_lo: int, window_data: np.ndarray) -> Generator:
        worker = kernel.process(map_and_shuffle(t, read_lo, window_data),
                                name=f"ccmap:r{ctx.rank}.{t}")
        if pipeline:
            # The I/O thread streams ahead; map/shuffle catch up.
            workers.append(worker)
        else:
            # Blocking variant: finish this window before the next read.
            yield worker

    spans = [plan.read_span(agg_idx, t) for t in range(len(my_windows))]
    yield from read_windows(ctx, file, spans, pipeline, spawn, timeline)
    if workers:
        yield kernel.all_of(workers)
    if staging is not None:
        ns, stage_tag = staging
        merged: Dict[int, PartialResult] = {}
        folds = 0
        for t in range(len(my_windows)):
            folds += _fold_partials(op, merged, window_partials[t] or [])
        t0 = kernel.now
        yield from ctx.compute(folds * COMBINE_ELEMENT_COST, 1.0)
        if stats is not None:
            stats.local_reduction_time += kernel.now - t0
        staged = [merged[r] for r in sorted(merged)]
        yield from ctx.comm.send(staged, ns.leader, stage_tag)
    return None


def _cc_collect_staged(ctx: RankContext, op: MapReduceOp,
                       plan: TwoPhasePlan, ns: NodeSplit, stage_tag: int,
                       stats: Optional[CCStats]) -> Generator:
    """Leader side of two-level staging: receive each co-located
    aggregator's staged batch and pre-combine per destination rank.
    Returns the merged ``{dest_rank: partial}`` accumulator."""
    comm = ctx.comm.comm
    my_aggs = [a for i, a in enumerate(plan.aggregators)
               if comm.node_of(a) == ns.node_index and plan.windows[i]]
    merged: Dict[int, PartialResult] = {}
    folds = 0
    blocks = 0
    for a in my_aggs:
        staged = yield from ctx.comm.recv(a, stage_tag)
        blocks += sum(len(p.blocks) for p in staged)
        folds += _fold_partials(op, merged, staged)
    t0 = ctx.kernel.now
    yield from ctx.compute(
        folds * COMBINE_ELEMENT_COST + blocks * BLOCK_PARSE_COST, 1.0)
    if stats is not None:
        stats.local_reduction_time += ctx.kernel.now - t0
    return merged


def _cc_receiver_all_to_all_two_level(ctx: RankContext, oio: ObjectIO,
                                      plan: TwoPhasePlan, ns: NodeSplit,
                                      stage_tag: int, xnode_tag: int,
                                      fwd_tag: int,
                                      stats: Optional[CCStats]) -> Generator:
    """All-to-all mode, two-level: leaders collect their aggregators'
    staged (pre-combined) partials, exchange one batch per destination
    node across the network, and deliver each co-located rank its
    partials in one intra-node message.

    Every schedule decision — which aggregators stage, which node pairs
    exchange, which ranks expect a delivery — derives deterministically
    from :attr:`TwoPhasePlan.rank_agg_matrix` on every rank.
    """
    comm = ctx.comm.comm
    op = oio.op
    if not ns.is_leader:
        received: List[PartialResult] = []
        if bool(plan.membership[ctx.rank].any()):
            received = yield from ctx.comm.recv(ns.leader, fwd_tag)
        payload = yield from combine_partials(ctx, op, received, stats)
        return payload
    merged = yield from _cc_collect_staged(ctx, op, plan, ns, stage_tag,
                                           stats)
    # Outbound: one batch per destination node (its leader), carrying
    # this node's pre-combined partials destined there.
    by_node: Dict[int, List[PartialResult]] = {}
    for r in sorted(merged):
        by_node.setdefault(comm.node_of(r), []).append(merged[r])
    sends = []
    for node in sorted(by_node):
        if node == ns.node_index:
            continue
        sends.append(ctx.comm.isend(by_node[node], comm.node_leader(node),
                                    xnode_tag))
    # Inbound: source nodes whose aggregators hold data for any rank of
    # this node (own node's staged data is already in hand).
    mat = plan.rank_agg_matrix
    agg_node = [comm.node_of(a) for a in plan.aggregators]
    dest_any = mat[ns.node_ranks].any(axis=0)
    src_nodes = sorted(
        {agg_node[i] for i in np.flatnonzero(dest_any)}
        - {ns.node_index})
    inbound: Dict[int, List[PartialResult]] = {}
    own = by_node.get(ns.node_index)
    if own:
        inbound[ns.node_index] = own
    for s in src_nodes:
        batch = yield from ctx.comm.recv(comm.node_leader(s), xnode_tag)
        inbound[s] = batch
    # Deliver: one intra-node message per co-located rank, its partials
    # ordered by source node.
    per_rank: Dict[int, List[PartialResult]] = {}
    for s in sorted(inbound):
        for p in inbound[s]:
            per_rank.setdefault(p.dest_rank, []).append(p)
    for r in sorted(per_rank):
        if r == ctx.rank:
            continue
        sends.append(ctx.comm.isend(per_rank[r], r, fwd_tag))
    for req in sends:
        yield from ctx.wait_recording(req.event)
    payload = yield from combine_partials(ctx, op,
                                          per_rank.get(ctx.rank, []), stats)
    return payload


def _cc_stage_to_root(ctx: RankContext, oio: ObjectIO, plan: TwoPhasePlan,
                      ns: NodeSplit, stage_tag: int,
                      xnode_tag: int, stats: Optional[CCStats]) -> Generator:
    """All-to-one mode, two-level, leader side: collect and pre-combine
    the node's staged partials, then ship them to the root in one
    message per node."""
    merged = yield from _cc_collect_staged(ctx, oio.op, plan, ns,
                                           stage_tag, stats)
    staged = [merged[r] for r in sorted(merged)]
    yield from ctx.comm.send(staged, oio.root, xnode_tag)
    return None


def _cc_receiver_all_to_all(ctx: RankContext, oio: ObjectIO,
                            plan: TwoPhasePlan, base_tag: int,
                            stats: Optional[CCStats]) -> Generator:
    """All-to-all mode: collect my partials, reduce them locally.

    Partials arrive as per-node batches at each node's *leader* (its
    first rank), which forwards its node-mates' partials over shared
    memory.  The schedule is derived deterministically on every rank
    from the plan, exactly like the raw two-phase receiver schedule.
    """
    # The communicator's placement table (shared, read-only).
    node_ranks = ctx.comm.comm.node_groups()[ctx.node.index]
    leader = node_ranks[0]
    is_leader = ctx.rank == leader

    received: List[PartialResult] = []
    if is_leader:
        # (iteration, aggregator) pairs whose window holds data for any
        # rank of this node -> one inbound batch each.
        node_any = plan.membership[node_ranks].any(axis=0)
        forwards: List = []
        for i, agg_rank in enumerate(plan.aggregators):
            for t in range(len(plan.windows[i])):
                if not node_any[plan.flat_index(i, t)]:
                    continue
                req = ctx.comm.irecv(agg_rank, base_tag + t)
                msg = yield from ctx.wait_recording(req.event)
                for partial in msg.data:
                    if partial.dest_rank == ctx.rank:
                        received.append(partial)
                    else:
                        forwards.append(ctx.comm.isend(
                            partial, partial.dest_rank, base_tag + t))
        for req in forwards:
            yield from ctx.wait_recording(req.event)
    else:
        # One forwarded partial per (window, aggregator) holding my
        # data, in ascending window order — the same schedule the
        # leader's forwarding loop produces.
        for t, _agg_rank in plan.receiver_schedule(ctx.rank):
            req = ctx.comm.irecv(leader, base_tag + t)
            msg = yield from ctx.wait_recording(req.event)
            received.append(msg.data)
    payload = yield from combine_partials(ctx, oio.op, received, stats)
    return payload


def _cc_receiver_all_to_one(ctx: RankContext, oio: ObjectIO,
                            plan: TwoPhasePlan, base_tag: int,
                            stats: Optional[CCStats],
                            staging: Optional[tuple] = None) -> Generator:
    """All-to-one mode, root side: collect the partial batches and
    construct per-rank results (:func:`construct_at_root`).

    One-level: one batch per (aggregator, window).  Two-level
    (``staging=(ns, xnode_tag)``): one pre-combined batch per *node*
    hosting an aggregator with windows, sent by that node's leader.
    """
    received: List[PartialResult] = []
    if staging is not None:
        _ns, xnode_tag = staging
        comm = ctx.comm.comm
        stage_nodes = sorted({
            comm.node_of(a) for i, a in enumerate(plan.aggregators)
            if plan.windows[i]})
        for s in stage_nodes:
            req = ctx.comm.irecv(comm.node_leader(s), xnode_tag)
            msg = yield from ctx.wait_recording(req.event)
            received.extend(msg.data)
    else:
        for i, agg_rank in enumerate(plan.aggregators):
            for t in range(len(plan.windows[i])):
                req = ctx.comm.irecv(agg_rank, base_tag + t)
                msg = yield from ctx.wait_recording(req.event)
                received.extend(msg.data)
    result = yield from construct_at_root(ctx, oio.op, received, stats)
    return result


def cc_read_compute(ctx: RankContext, file: PFSFile, oio: ObjectIO,
                    timeline: Optional[PhaseTimeline] = None,
                    stats: Optional[CCStats] = None,
                    plan: Optional[TwoPhasePlan] = None) -> Generator:
    """Run one collective-computing read+compute (collective call).

    Returns a :class:`CCResult`; numerically, ``global_result`` on the
    root equals what the traditional path (read everything, compute,
    MPI_Reduce) produces for the same :class:`~repro.core.ObjectIO`.

    ``plan`` short-circuits the offset exchange with a pre-computed
    schedule (used by :mod:`repro.core.iterative`'s plan caching); the
    caller is responsible for its consistency across ranks.
    """
    if oio.block:
        raise CollectiveComputingError(
            "cc_read_compute got block=True; use the traditional path "
            "(repro.core.api.object_get dispatches automatically)"
        )
    if plan is None:
        request = AccessRequest.from_subarray(oio.spec, oio.sub)
        # Align the schedule to whole elements so the map never sees a
        # split value (byte-level two-phase I/O has no such constraint).
        grid = (oio.spec.file_offset, oio.spec.itemsize)
        plan = yield from make_plan(ctx, request.runs, file, oio.hints,
                                    grid)
    # Two-level (node-aware) staging: pre-combine partials node-locally
    # before they cross the network.  Pre-combining re-associates the
    # reduction, so it is gated on the op being bit-exact under
    # re-association; otherwise fall back to one-level (the offset
    # exchange in make_plan stays two-level either way — it is
    # data-identical regardless of the op).
    two_level = (oio.hints.two_level and oio.op.reassociable
                 and ctx.size > 1)
    ns: Optional[NodeSplit] = None
    if two_level:
        ns = yield from ctx.comm.node_split()
        base_tag = ctx.comm.next_collective_tags(3)
        stage_tag, xnode_tag, fwd_tag = base_tag, base_tag + 1, base_tag + 2
        staging = (ns, stage_tag)
    else:
        base_tag = ctx.comm.next_collective_tags(max(plan.ntimes, 1))
        staging = None
    agg_idx = plan.aggregator_index(ctx.rank)

    procs = []
    if agg_idx is not None and plan.windows[agg_idx]:
        procs.append(ctx.kernel.process(
            _cc_aggregator_loop(ctx, file, oio, plan, agg_idx, base_tag,
                                timeline, stats, staging),
            name=f"ccagg:r{ctx.rank}",
        ))
    result = CCResult(stats=stats)
    if oio.reduce_mode == "all_to_all":
        recv_proc = ctx.kernel.process(
            _cc_receiver_all_to_all_two_level(ctx, oio, plan, ns, stage_tag,
                                              xnode_tag, fwd_tag, stats)
            if two_level else
            _cc_receiver_all_to_all(ctx, oio, plan, base_tag, stats),
            name=f"ccrecv:r{ctx.rank}")
        procs.append(recv_proc)
        yield ctx.kernel.all_of(procs)
        payload = recv_proc.value
        result.local = None if payload is None else oio.op.finalize(payload)
        result.global_result = yield from global_reduce(
            ctx, oio.op, payload, oio.root, stats)
    else:  # all_to_one
        if two_level and ns.is_leader and any(
                plan.windows[i] for i, a in enumerate(plan.aggregators)
                if ctx.comm.comm.node_of(a) == ns.node_index):
            procs.append(ctx.kernel.process(
                _cc_stage_to_root(ctx, oio, plan, ns, stage_tag,
                                  xnode_tag, stats),
                name=f"ccstage:r{ctx.rank}",
            ))
        if ctx.rank == oio.root:
            recv_proc = ctx.kernel.process(
                _cc_receiver_all_to_one(
                    ctx, oio, plan, base_tag, stats,
                    (ns, xnode_tag) if two_level else None),
                name=f"ccroot:r{ctx.rank}",
            )
            procs.append(recv_proc)
            yield ctx.kernel.all_of(procs)
            result = recv_proc.value
        elif procs:
            yield ctx.kernel.all_of(procs)
    return result
