"""Runtime collective-protocol verifier (the MUST-style sanitizer).

The Collective Computing protocol only works because every rank of a
communicator executes the *same* sequence of collectives in the same
order (the SPMD discipline).  Within the simulator all ranks share one
:class:`~repro.mpi.comm.Communicator` object, so the verifier can check
the discipline exactly: a :class:`CollectiveLedger` attached to the
communicator records every collective call site — op name, communicator
id, per-rank collective sequence number, and a payload dtype/shape
signature — and raises a precise :class:`~repro.errors.MPIError` the
moment one rank's ``n``-th collective disagrees with another rank's,
or, at the end of the job, when one rank entered fewer collectives
than another.

The ledger is opt-in (created when ``REPRO_CHECK`` is on at communicator
construction, see :mod:`repro.flags`); with it off the only cost
per collective call is an attribute-is-None test.

This module also provides the wait-for-graph analysis behind the
upgraded :class:`~repro.errors.DeadlockError` report: from the posted,
unmatched receives of the registered communicators it reconstructs
which rank is blocked on which peer (with tags) and names the cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import MPIError

#: Collectives whose payloads must agree in dtype/shape across ranks
#: (elementwise combination would silently corrupt otherwise).  The
#: remaining ops legitimately carry per-rank payloads of differing
#: sizes (allgather/alltoall of run lists, bcast's ignored non-root
#: argument), so only their op name and ordering are enforced.
STRICT_PAYLOAD_OPS = frozenset({"reduce", "allreduce"})


def payload_signature(value: Any) -> Tuple:
    """A cheap, hashable dtype/shape fingerprint of a collective payload.

    ``None`` (the identity payload of empty-region ranks, see
    :func:`repro.core.reduction.make_reduce_op`) is a wildcard that
    matches any signature.
    """
    if value is None:
        return ("none",)
    dtype = getattr(value, "dtype", None)
    if dtype is not None and hasattr(value, "shape"):
        return ("ndarray", str(dtype), tuple(value.shape))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, len(value))
    return (type(value).__name__,)


def _compatible(a: Tuple, b: Tuple) -> bool:
    return a == b or a == ("none",) or b == ("none",)


class CollectiveLedger:
    """Cross-rank matcher for one communicator's collective call stream.

    The first rank to reach collective sequence number ``s`` defines the
    expectation ``(op, signature)``; every later rank's ``s``-th call
    must match it.  Fully-matched sequence slots are pruned so memory
    stays proportional to rank skew, not run length.
    """

    __slots__ = ("comm_id", "nprocs", "_next_seq", "_expected",
                 "_matched", "_last", "calls")

    def __init__(self, comm_id: int, nprocs: int) -> None:
        self.comm_id = comm_id
        self.nprocs = nprocs
        #: Per-rank count of collectives entered so far.
        self._next_seq = [0] * nprocs
        #: seq → (op, signature, first rank, its line of entry order).
        self._expected: Dict[int, Tuple[str, Tuple, int]] = {}
        #: seq → ranks that have matched so far.
        self._matched: Dict[int, int] = {}
        #: rank → (seq, op) of its most recent collective (deadlock aid).
        self._last: List[Optional[Tuple[int, str]]] = [None] * nprocs
        #: Total collective call sites recorded (all ranks).
        self.calls = 0

    def record(self, rank: int, op: str, payload: Any) -> None:
        """Validate one rank entering a collective; raises
        :class:`MPIError` on a cross-rank protocol mismatch."""
        seq = self._next_seq[rank]
        self._next_seq[rank] = seq + 1
        self._last[rank] = (seq, op)
        self.calls += 1
        sig = payload_signature(payload)
        expected = self._expected.get(seq)
        if expected is None:
            self._expected[seq] = (op, sig, rank)
            self._matched[seq] = 1
            return
        exp_op, exp_sig, first_rank = expected
        if op != exp_op:
            raise MPIError(
                f"collective protocol mismatch on comm {self.comm_id} at "
                f"collective #{seq}: rank {rank} called '{op}' but rank "
                f"{first_rank} called '{exp_op}'")
        if op in STRICT_PAYLOAD_OPS and not _compatible(sig, exp_sig):
            raise MPIError(
                f"collective payload mismatch on comm {self.comm_id} at "
                f"collective #{seq} ('{op}'): rank {rank} passed "
                f"{sig} but rank {first_rank} passed {exp_sig}")
        if exp_sig == ("none",) and sig != ("none",):
            # Upgrade the wildcard so later ranks match the real payload.
            self._expected[seq] = (exp_op, sig, rank)
        self._matched[seq] += 1
        if self._matched[seq] == self.nprocs:
            del self._expected[seq]
            del self._matched[seq]

    def last_collective(self, rank: int) -> Optional[Tuple[int, str]]:
        """``(seq, op)`` of the rank's most recent collective, or None."""
        return self._last[rank]

    def finish(self) -> None:
        """End-of-job check: every rank entered the same number of
        collectives (a rank stuck mid-stream would already have
        deadlocked, but a *missing* trailing collective only shows up
        here).  :func:`repro.mpi.mpi_run` calls it on every ledger of
        the job once the kernel drains."""
        counts = set(self._next_seq)
        if len(counts) > 1:
            detail = ", ".join(
                f"rank {r}: {n}" for r, n in enumerate(self._next_seq))
            raise MPIError(
                f"collective protocol mismatch on comm {self.comm_id}: "
                f"ranks entered differing numbers of collectives "
                f"({detail})")


# -- deadlock wait-for analysis ---------------------------------------------

def _describe_tag(tag: int, min_reserved: int) -> str:
    if tag >= min_reserved:
        return f"{tag} (collective tag #{tag - min_reserved})"
    return str(tag)


def blocked_receives(comm) -> List[Tuple[int, int, int]]:
    """``(rank, source, tag)`` for every posted, unmatched receive of a
    communicator, one entry per receive."""
    out: List[Tuple[int, int, int]] = []
    for rank, posted in enumerate(comm._posted):
        for (source, tag), waiting in posted.items():
            out.extend((rank, source, tag) for _ in waiting)
    return out


def find_rank_cycle(edges: Dict[int, int]) -> Optional[List[int]]:
    """A cycle in the rank wait-for digraph (rank → the single peer it
    is blocked receiving from), or None.  Deterministic: starts the
    walk from the lowest-numbered rank."""
    visited: Dict[int, int] = {}  # rank -> walk id
    for start in sorted(edges):
        if start in visited:
            continue
        path: List[int] = []
        pos: Dict[int, int] = {}
        node = start
        while node in edges and node not in visited:
            if node in pos:
                return path[pos[node]:]
            pos[node] = len(path)
            path.append(node)
            node = edges[node]
        if node in pos:  # walked back onto this path
            return path[pos[node]:]
        for n in path:
            visited[n] = start
    return None


def describe_blocked(comm, min_reserved_tag: int,
                     max_lines: int = 16) -> List[str]:
    """Human-readable blocked-state report for one communicator, used
    by the kernel's :class:`~repro.errors.DeadlockError` message.

    Lists each rank's pending receive (source and tag), the wait-for
    cycle if the blocked receives form one, and — when the collective
    sanitizer is attached — the last collective each blocked rank
    entered.
    """
    lines: List[str] = []
    blocked = blocked_receives(comm)
    ledger = getattr(comm, "sanitizer", None)
    for rank, source, tag in blocked[:max_lines]:
        line = (f"comm {comm.id} rank {rank}: blocked in "
                f"recv(source={source}, tag={_describe_tag(tag, min_reserved_tag)})")
        if ledger is not None:
            last = ledger.last_collective(rank)
            if last is not None:
                line += f"; last collective: '{last[1]}' (#{last[0]})"
        lines.append(line)
    if len(blocked) > max_lines:
        lines.append(f"comm {comm.id}: ... and {len(blocked) - max_lines} "
                     f"more blocked receive(s)")
    # Wait-for cycle over ranks with exactly one pending source: rank r
    # waits on rank s.
    edges: Dict[int, int] = {}
    per_rank: Dict[int, List[Tuple[int, int]]] = {}
    for rank, source, tag in blocked:
        per_rank.setdefault(rank, []).append((source, tag))
    for rank, waits in per_rank.items():
        sources = {s for s, _t in waits}
        if len(sources) == 1:
            edges[rank] = next(iter(sources))
    cycle = find_rank_cycle(edges)
    if cycle:
        hops = []
        for r in cycle:
            tag = next(t for s, t in per_rank[r] if s == edges[r])
            hops.append(f"rank {r} -[tag {_describe_tag(tag, min_reserved_tag)}]->")
        lines.append(
            f"comm {comm.id} wait-for cycle: "
            + " ".join(hops) + f" rank {cycle[0]}")
    for rank, unexpected in enumerate(comm._unexpected):
        if unexpected:
            count = sum(len(queue) for queue in unexpected.values())
            lines.append(
                f"comm {comm.id} rank {rank}: {count} delivered "
                f"message(s) never received")
    return lines
