"""Collective operations built on point-to-point messages.

The algorithms mirror MPICH's defaults, so communication volume and
latency scale the same way they do on the paper's testbed:

* ``barrier`` — dissemination (⌈log2 P⌉ rounds).
* ``bcast`` / ``reduce`` — binomial trees.
* ``allreduce`` — reduce to 0 + bcast.
* ``gather`` / ``scatter`` — linear with the root.
* ``allgather`` — ring (P-1 steps).
* ``alltoall`` — P-1 pairwise exchange rounds; per-destination payloads
  of arbitrary (differing) sizes make this double as ``alltoallv``.

Every function is a generator to be driven with ``yield from`` inside a
rank process, and must be invoked by **all** ranks of the communicator
in the same program order (the SPMD discipline a real MPI requires).
Tags are reserved per collective call via
:meth:`~repro.mpi.comm.CommHandle.next_collective_tags`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from ..errors import MPIError
from .comm import CommHandle
from .op import Op
from .wire import CONTAINER_OVERHEAD, wire_size


def _ceil_log2(n: int) -> int:
    bits = 0
    while (1 << bits) < n:
        bits += 1
    return bits


def barrier(comm: CommHandle) -> Generator:
    """Dissemination barrier: no rank leaves before all have entered."""
    comm.trace_collective("barrier")
    size, rank = comm.size, comm.rank
    rounds = _ceil_log2(size)
    base_tag = comm.next_collective_tags(max(rounds, 1))
    mask = 1
    for k in range(rounds):
        dest = (rank + mask) % size
        src = (rank - mask) % size
        req = comm.isend(None, dest, base_tag + k, nbytes=8)
        yield from comm.recv(src, base_tag + k)
        yield req.event
        mask <<= 1
    comm.trace_collective_exit("barrier")
    return None


def bcast(comm: CommHandle, data: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the broadcast value on all ranks."""
    comm.trace_collective("bcast", data)
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if size == 1:
        comm.trace_collective_exit("bcast")
        return data
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            src = (relative - mask + root) % size
            data = yield from comm.recv(src, tag)
            break
        mask <<= 1
    mask >>= 1
    pending = []
    while mask > 0:
        if relative + mask < size:
            dest = (relative + mask + root) % size
            pending.append(comm.isend(data, dest, tag))
        mask >>= 1
    for req in pending:
        yield req.event
    comm.trace_collective_exit("bcast")
    return data


def reduce(comm: CommHandle, value: Any, op: Op, root: int = 0) -> Generator:
    """Binomial-tree reduction; the combined value lands on ``root``
    (other ranks get ``None``).

    Non-commutative operators are combined in rank order within each
    tree merge (lower rank's value on the left), matching MPI's
    canonical-order guarantee for binomial trees.
    """
    comm.trace_collective("reduce", value)
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if size == 1:
        comm.trace_collective_exit("reduce")
        return value
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask == 0:
            partner_rel = relative | mask
            if partner_rel < size:
                src = (partner_rel + root) % size
                other = yield from comm.recv(src, tag)
                # The partner has a higher relative rank: it goes right.
                value = op(value, other)
                comm.note_reduce_step(op, src)
        else:
            dest = ((relative & ~mask) + root) % size
            yield from comm.send(value, dest, tag)
            value = None
            break
        mask <<= 1
    comm.trace_collective_exit("reduce")
    return value if rank == root else None


def allreduce(comm: CommHandle, value: Any, op: Op) -> Generator:
    """Reduce to rank 0, then broadcast the result to everyone."""
    comm.trace_collective("allreduce", value)
    reduced = yield from reduce(comm, value, op, root=0)
    result = yield from bcast(comm, reduced, root=0)
    comm.trace_collective_exit("allreduce")
    return result


def gather(comm: CommHandle, value: Any, root: int = 0) -> Generator:
    """Linear gather; ``root`` returns the list of per-rank values in
    rank order, other ranks return ``None``."""
    comm.trace_collective("gather", value)
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if rank == root:
        out: List[Any] = [None] * size
        out[root] = value
        for src in range(size):
            if src == root:
                continue
            out[src] = yield from comm.recv(src, tag)
        comm.trace_collective_exit("gather")
        return out
    yield from comm.send(value, root, tag)
    comm.trace_collective_exit("gather")
    return None


def scatter(comm: CommHandle, values: Optional[Sequence[Any]],
            root: int = 0) -> Generator:
    """Linear scatter; every rank returns its element of the root's list."""
    comm.trace_collective("scatter")
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if rank == root:
        if values is None or len(values) != size:
            raise MPIError(
                f"scatter root needs a list of exactly {size} values"
            )
        pending = []
        for dest in range(size):
            if dest == root:
                continue
            pending.append(comm.isend(values[dest], dest, tag))
        for req in pending:
            yield req.event
        comm.trace_collective_exit("scatter")
        return values[root]
    data = yield from comm.recv(root, tag)
    comm.trace_collective_exit("scatter")
    return data


def allgather(comm: CommHandle, value: Any) -> Generator:
    """Bruck allgather (⌈log2 P⌉ rounds) — MPICH's small-message
    algorithm; every rank returns the rank-ordered value list.

    Round ``k`` sends everything collected so far to ``rank - 2^k`` and
    receives from ``rank + 2^k``, doubling the collected set.  For
    non-power-of-two sizes the final round over-sends slightly (the
    dict merge absorbs duplicates), exactly like the classic algorithm's
    remainder step.
    """
    comm.trace_collective("allgather", value)
    size, rank = comm.size, comm.rank
    rounds = _ceil_log2(size)
    base_tag = comm.next_collective_tags(max(rounds, 1))
    collected = {rank: value}
    # The dict's wire size (8 bytes per int key plus each value) is
    # tracked incrementally: only the caller's own value is measured,
    # and every later round adds the byte count the sender already
    # charged on the received envelope.  The incoming set is disjoint
    # from the collected one in every round but the last, whose total
    # is never sent — so each rank's host work stays independent of P.
    payload_bytes = 8 + wire_size(value)
    step = 1
    k = 0
    while step < size:
        dst = (rank - step) % size
        src = (rank + step) % size
        req = comm.isend(dict(collected), dst, base_tag + k,
                         nbytes=CONTAINER_OVERHEAD + payload_bytes)
        msg = yield from comm.recv_msg(src, base_tag + k)
        yield req.event
        # Last-round duplicates are the very objects already held.
        collected.update(msg.data)
        payload_bytes += msg.nbytes - CONTAINER_OVERHEAD
        step <<= 1
        k += 1
    comm.trace_collective_exit("allgather")
    return [collected[i] for i in range(size)]


def allgather_ring(comm: CommHandle, value: Any) -> Generator:
    """Ring allgather (P-1 rounds) — MPICH's large-message algorithm,
    bandwidth-optimal without payload duplication.  Kept for workloads
    where per-rank payloads are large; semantics identical to
    :func:`allgather`."""
    comm.trace_collective("allgather_ring", value)
    size, rank = comm.size, comm.rank
    tag = comm.next_collective_tags(1)
    out: List[Any] = [None] * size
    out[rank] = value
    if size == 1:
        comm.trace_collective_exit("allgather_ring")
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry = value
    carry_owner = rank
    for _step in range(size - 1):
        req = comm.isend((carry_owner, carry), right, tag)
        src_owner, received = yield from comm.recv(left, tag)
        yield req.event
        out[src_owner] = received
        carry, carry_owner = received, src_owner
    comm.trace_collective_exit("allgather_ring")
    return out


def scan(comm: CommHandle, value: Any, op: Op) -> Generator:
    """Inclusive prefix reduction (``MPI_Scan``): rank ``r`` returns
    ``value_0 op value_1 op ... op value_r``.

    Recursive-doubling: round ``k`` exchanges partial prefixes with the
    rank ``2^k`` away; ⌈log2 P⌉ rounds.
    """
    comm.trace_collective("scan", value)
    size, rank = comm.size, comm.rank
    rounds = _ceil_log2(size)
    base_tag = comm.next_collective_tags(max(rounds, 1))
    result = value       # prefix including my own value
    carry = value        # combined value of my 2^k-neighbourhood
    step = 1
    k = 0
    while step < size:
        reqs = []
        if rank + step < size:
            reqs.append(comm.isend(carry, rank + step, base_tag + k))
        if rank - step >= 0:
            incoming = yield from comm.recv(rank - step, base_tag + k)
            # Everything arriving comes from strictly lower ranks.
            result = op(incoming, result)
            carry = op(incoming, carry)
            comm.note_reduce_step(op, rank - step)
        for req in reqs:
            yield req.event
        step <<= 1
        k += 1
    comm.trace_collective_exit("scan")
    return result


def exscan(comm: CommHandle, value: Any, op: Op) -> Generator:
    """Exclusive prefix reduction (``MPI_Exscan``): rank ``r`` returns
    the combination of ranks ``0..r-1`` (``None`` on rank 0)."""
    comm.trace_collective("exscan", value)
    size, rank = comm.size, comm.rank
    rounds = _ceil_log2(size)
    base_tag = comm.next_collective_tags(max(rounds, 1))
    below: Any = None    # combination of strictly lower ranks
    carry = value
    step = 1
    k = 0
    while step < size:
        reqs = []
        if rank + step < size:
            reqs.append(comm.isend(carry, rank + step, base_tag + k))
        if rank - step >= 0:
            incoming = yield from comm.recv(rank - step, base_tag + k)
            below = incoming if below is None else op(incoming, below)
            carry = op(incoming, carry)
            comm.note_reduce_step(op, rank - step)
        for req in reqs:
            yield req.event
        step <<= 1
        k += 1
    comm.trace_collective_exit("exscan")
    return below


def reduce_scatter_block(comm: CommHandle, values: Sequence[Any],
                         op: Op) -> Generator:
    """``MPI_Reduce_scatter_block``: element ``r`` of every rank's list
    is reduced and delivered to rank ``r``.

    Implemented as reduce-to-root + scatter (MPICH's small-message
    fallback); returns this rank's reduced element.
    """
    comm.trace_collective("reduce_scatter_block", values)
    size = comm.size
    if len(values) != size:
        raise MPIError(f"reduce_scatter needs exactly {size} values")
    combined = yield from reduce(
        comm,
        list(values),
        Op.create(lambda a, b: [op(x, y) for x, y in zip(a, b)],
                  commutative=op.commutative, name=f"ew:{op.name}"),
        root=0,
    )
    mine = yield from scatter(comm, combined, root=0)
    comm.trace_collective_exit("reduce_scatter_block")
    return mine


def alltoall(comm: CommHandle, values: Sequence[Any]) -> Generator:
    """Pairwise-exchange all-to-all; ``values[d]`` goes to rank ``d``.

    Payloads may differ in size per destination (the ``alltoallv``
    case).  Returns the list where element ``s`` came from rank ``s``.
    """
    comm.trace_collective("alltoall", values)
    size, rank = comm.size, comm.rank
    if len(values) != size:
        raise MPIError(f"alltoall needs exactly {size} payloads")
    tag = comm.next_collective_tags(1)
    out: List[Any] = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        req = comm.isend(values[dest], dest, tag)
        out[src] = yield from comm.recv(src, tag)
        yield req.event
    comm.trace_collective_exit("alltoall")
    return out
