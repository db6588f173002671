"""Collective operations built on point-to-point messages.

The algorithms mirror MPICH's defaults, so communication volume and
latency scale the same way they do on the paper's testbed:

* ``barrier`` — dissemination (⌈log2 P⌉ rounds).
* ``bcast`` / ``reduce`` — binomial trees.
* ``allreduce`` — reduce to 0 + bcast.
* ``gather`` — linear with the root.
* ``allgather`` — Bruck (⌈log2 P⌉ rounds).
* ``alltoall`` — P-1 pairwise exchange rounds; per-destination payloads
  of arbitrary (differing) sizes make this double as ``alltoallv``.

These are the collectives the CC and two-phase protocols call.

Every function is a generator to be driven with ``yield from`` inside a
rank process, and must be invoked by **all** ranks of the communicator
in the same program order (the SPMD discipline a real MPI requires).
Tags are reserved per collective call via
:meth:`~repro.mpi.comm.CommHandle.next_collective_tags`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Sequence

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
    return None


def bcast(comm: CommHandle, data: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the broadcast value on all ranks."""
    comm.trace_collective("bcast", data)
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if size == 1:
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
    return data


def reduce(comm: CommHandle, value: Any, op: Op, root: int = 0) -> Generator:
    """Binomial-tree reduction; the combined value lands on ``root``
    (other ranks get ``None``).

    Operands are combined in order of rank relative to ``root`` within
    each tree merge (the lower relative rank's value on the left), MPI's
    canonical order for binomial trees, so a non-commutative operator
    gets a deterministic result: with ``root=0``, the rank-order fold.
    """
    comm.trace_collective("reduce", value)
    size, rank = comm.size, comm.rank
    comm.comm.check_rank(root)
    tag = comm.next_collective_tags(1)
    if size == 1:
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
        else:
            dest = ((relative & ~mask) + root) % size
            yield from comm.send(value, dest, tag)
            value = None
            break
        mask <<= 1
    return value if rank == root else None


def allreduce(comm: CommHandle, value: Any, op: Op) -> Generator:
    """Reduce to rank 0, then broadcast the result to everyone."""
    comm.trace_collective("allreduce", value)
    reduced = yield from reduce(comm, value, op, root=0)
    result = yield from bcast(comm, reduced, root=0)
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
        return out
    yield from comm.send(value, root, tag)
    return None


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
    return [collected[i] for i in range(size)]


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
    return out
