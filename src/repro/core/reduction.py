"""Results reduce and construction (paper §III-C).

Two strategies for getting partial results from the aggregators to a
final answer:

* **all-to-all** — every partial is shuffled to the rank that owns the
  region it covers; each rank reduces *its own* partials locally, then
  a final tree reduce combines the per-rank results on the root.
  Costs more messages but leaves every process with its own result for
  further local processing (the scenario the paper calls out).
* **all-to-one** — aggregators send every partial straight to the root,
  which constructs all per-process results and the global reduction
  itself.  Fewer messages, but serialized at one node.

The time ranks spend merging partials is the paper's "local reduction"
overhead (Figure 11) and is accumulated into
:class:`~repro.core.metadata.CCStats`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..errors import CollectiveComputingError
from ..mpi import Op, RankContext, collectives as coll
from .metadata import CCStats, PartialResult
from .ops import MapReduceOp

#: CPU cost (in cost-model element units) of merging one partial result
#: into an accumulator (the combine itself).
COMBINE_ELEMENT_COST = 64
#: Additional cost per logical block of metadata parsed during result
#: construction (paper §III-C: partial results carry process info and
#: logical coordinates that must be decoded before combining).
BLOCK_PARSE_COST = 16


def _merge(op: MapReduceOp, acc: Any, payload: Any) -> Any:
    if acc is _EMPTY:
        return payload
    return op.combine(acc, payload)


#: Sentinel for "no partials yet" (distinct from a None payload).
_EMPTY = object()


def combine_partials(ctx: RankContext, op: MapReduceOp,
                     partials: List[PartialResult],
                     stats: Optional[CCStats]) -> Generator:
    """Merge a batch of partials into one payload, charging CPU time.

    Returns the combined payload, or the ``_EMPTY``-mapped ``None`` when
    the batch is empty.  With an integrity manager attached to the
    machine, each digest-stamped partial is re-verified moments before
    it is merged — the last checkpoint a corrupted partial can be
    caught at before it poisons the reduction.
    """
    if not partials:
        return None
    integ = ctx.machine.integrity
    if integ is not None:
        integ.verify_partials(ctx, partials,
                              f"rank {ctx.rank} local combine")
    acc: Any = _EMPTY
    blocks = 0
    for p in partials:
        acc = _merge(op, acc, p.payload)
        blocks += len(p.blocks)
    t0 = ctx.kernel.now
    cost_units = len(partials) * COMBINE_ELEMENT_COST + blocks * BLOCK_PARSE_COST
    yield from ctx.compute(cost_units, 1.0)
    if stats is not None:
        stats.local_reduction_time += ctx.kernel.now - t0
    return acc


def make_reduce_op(op: MapReduceOp) -> Op:
    """Wrap an operator's combine as an MPI ``Op`` that treats ``None``
    as the identity (ranks with empty regions contribute nothing)."""
    def fn(a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return op.combine(a, b)
    return Op.create(fn, name=f"cc:{op.name}")


def global_reduce(ctx: RankContext, op: MapReduceOp, local_payload: Any,
                  root: int, stats: Optional[CCStats] = None) -> Generator:
    """Tree-reduce per-rank payloads to ``root``; returns the finalized
    global result there (None elsewhere)."""
    combined = yield from coll.reduce(ctx.comm, local_payload,
                                      make_reduce_op(op), root=root)
    if ctx.rank != root:
        return None
    if combined is None:
        raise CollectiveComputingError(
            "global reduce combined zero partial results"
        )
    return op.finalize(combined)


def construct_per_rank(op: MapReduceOp,
                       partials: List[PartialResult]) -> Dict[int, Any]:
    """Root-side construction for all-to-one mode: bucket partials by
    owning rank and combine each bucket (payloads, not finalized)."""
    buckets: Dict[int, Any] = {}
    for p in partials:
        if p.dest_rank in buckets:
            buckets[p.dest_rank] = op.combine(buckets[p.dest_rank], p.payload)
        else:
            buckets[p.dest_rank] = p.payload
    return buckets
