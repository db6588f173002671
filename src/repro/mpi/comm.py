"""Point-to-point communication: communicator + per-rank handles.

One :class:`Communicator` object is shared by all ranks of a job and
holds the matching state (posted receives, unexpected messages).  Each
rank talks through its own :class:`CommHandle` — the analogue of
``MPI_COMM_WORLD`` as seen from one process.

Semantics (eager protocol with unlimited buffering):

* ``send`` charges the network transfer (holding the endpoint NICs) and
  completes when the message is delivered to the destination's matching
  engine; it never waits for a matching receive.
* ``recv`` names an exact ``(source, tag)`` and matches with MPI's FIFO
  per-pair ordering.  There are no wildcards: every protocol derives
  its receive schedule from the exchanged plan, so each rank keeps its
  posted receives and unexpected messages in dicts from ``(source,
  tag)`` to FIFO queues, and a match is one lookup.
* Nonblocking variants return a :class:`Request` the caller yields on.

Tags below :data:`MIN_RESERVED_TAG` are for users; collectives use the
reserved space with per-collective sequence numbers (see
:mod:`repro.mpi.collectives`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from .. import flags
from ..cluster import Machine
from ..errors import MPIError
from ..obs import metrics
from ..sim import Event, Kernel, Timeout
from .wire import wire_size

#: Fixed bucket edges (bytes) of the ``mpi.msg_bytes`` histogram —
#: power-of-16 decades from tiny control messages to multi-MiB windows.
MSG_BYTES_EDGES = (64, 1024, 16384, 262144, 4194304)

#: First tag value reserved for internal (collective) traffic.
MIN_RESERVED_TAG = 1 << 20


@dataclass
class Message:
    """An in-flight or delivered message."""

    __slots__ = ("source", "dest", "tag", "data", "nbytes")

    source: int
    dest: int
    tag: int
    data: Any
    nbytes: int


#: A rank's matching table: ``(source, tag)`` -> FIFO of posted receive
#: events or of unexpected messages.  A key is deleted once its queue
#: empties, because every collective reserves fresh tags.
_Table = Dict[Tuple[int, int], Deque[Any]]


def _push(table: _Table, key: Tuple[int, int], item: Any) -> None:
    queue = table.get(key)
    if queue is None:
        table[key] = deque((item,))
    else:
        queue.append(item)


def _pop(table: _Table, key: Tuple[int, int]) -> Any:
    """The oldest item under ``key`` (None when there is none)."""
    queue = table.get(key)
    if queue is None:
        return None
    item = queue.popleft()
    if not queue:
        del table[key]
    return item


class Request:
    """Handle for a nonblocking operation.

    Yield :attr:`event` (or use :meth:`wait`) inside a rank process to
    block until completion; for receives the event's value is the
    payload.  :meth:`wait` may be driven more than once; every wait
    after completion returns the same payload immediately.
    """

    __slots__ = ("event", "_table", "_key")

    def __init__(self, event: Event, table: Optional[_Table] = None,
                 key: Optional[Tuple[int, int]] = None) -> None:
        self.event = event
        # Set only for still-unmatched receives: the posting table and
        # the receive's key, so cancel() can withdraw it.
        self._table = table
        self._key = key

    @property
    def complete(self) -> bool:
        """Whether the operation has finished."""
        return self.event.processed

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` withdrew this receive."""
        ev = self.event
        return ev.triggered and ev._ok is True and ev._value is _CANCELLED

    def cancel(self) -> bool:
        """Withdraw a not-yet-matched receive (``MPI_Cancel``).

        Returns True when the receive was withdrawn: the request
        completes immediately and waiting on it yields ``None``.
        Returns False when the operation already completed (or was
        already cancelled) — cancellation raced and lost, exactly like
        MPI's semantics.  Raises :class:`MPIError` for requests that are
        not cancellable (sends, collective-I/O requests): their effects
        are already in flight on other ranks.
        """
        if self.event.triggered:
            return False
        table, key = self._table, self._key
        if table is None:
            raise MPIError(
                "only a pending receive can be cancelled; send and "
                "collective requests are already visible to other ranks")
        # An untriggered receive is still queued: a match succeeds the
        # event the moment it dequeues it.
        queue = table[key]
        queue.remove(self.event)
        if not queue:
            del table[key]
        self._table = self._key = None
        self.event.succeed(_CANCELLED)
        return True

    def wait(self) -> Generator:
        """Generator: wait for completion, returning the payload.

        For receive requests the raw :class:`Message` envelope is
        unwrapped to its ``data``; send requests and cancelled receives
        return ``None``.
        """
        value = yield self.event
        if isinstance(value, Message):
            return value.data
        if value is _CANCELLED:
            return None
        return value


#: Sentinel payload of a cancelled receive (distinct from a None message).
_CANCELLED = object()


class Communicator:
    """Shared matching state for one group of ranks.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    machine:
        The machine providing the network and rank placement.
    nprocs:
        Number of ranks in the communicator.
    node_map:
        Optional explicit node index per rank.  ``None`` uses the
        machine's block placement (a world communicator); derived
        communicators from :meth:`CommHandle.split` pass the nodes
        their members actually live on.
    """

    _next_id = 0

    def __init__(self, kernel: Kernel, machine: Machine, nprocs: int,
                 node_map: Optional[List[int]] = None) -> None:
        if nprocs < 1:
            raise MPIError(f"communicator needs >= 1 rank, got {nprocs}")
        if node_map is not None and len(node_map) != nprocs:
            raise MPIError(
                f"node_map has {len(node_map)} entries for {nprocs} ranks"
            )
        self.kernel = kernel
        self.machine = machine
        self.nprocs = nprocs
        Communicator._next_id += 1
        self.id = Communicator._next_id
        #: Sub-communicators created by split, keyed by member ranks so
        #: repeated splits producing the same group reuse one object and
        #: the registry stays bounded by the number of distinct groups.
        self._subcomms: Dict[Tuple[int, ...], "Communicator"] = {}
        # Lazily built node -> member world ranks table (ascending).
        self._node_groups: Optional[Dict[int, List[int]]] = None
        self._unexpected: List[_Table] = [{} for _ in range(nprocs)]
        self._posted: List[_Table] = [{} for _ in range(nprocs)]
        # Per-(source, dest) sequencing enforcing MPI's non-overtaking
        # guarantee: messages between a pair are delivered in send order
        # even if the underlying transfers complete out of order.
        self._pair_next_out: Dict[Tuple[int, int], int] = {}
        self._pair_next_in: Dict[Tuple[int, int], int] = {}
        # Held-back values are None for messages the fault injector
        # dropped after they occupied the wire (sequencing still moves).
        self._held_back: Dict[Tuple[int, int], Dict[int, Optional[Message]]] = {}
        #: Collective-protocol verifier (:mod:`repro.check.protocol`),
        #: attached when ``REPRO_CHECK`` is on at construction.  With it
        #: off (the default) each collective call pays one is-None test.
        self.sanitizer = None
        if flags.current().check:
            from ..check.protocol import CollectiveLedger
            self.sanitizer = CollectiveLedger(self.id, nprocs)
        # Deadlock reports always include this communicator's pending
        # receives (zero cost until a deadlock is being diagnosed).
        kernel.watch_deadlocks(self)
        # Rank -> node lookup table (placement is fixed for the life of
        # the communicator; node_of is on the per-message hot path).
        self._node_of: List[int] = (
            list(node_map) if node_map is not None
            else [machine.node_of_rank(r, nprocs) for r in range(nprocs)])

    # -- helpers -----------------------------------------------------------
    def check_rank(self, rank: int) -> None:
        """Validate a rank id against this communicator."""
        if not 0 <= rank < self.nprocs:
            raise MPIError(f"rank {rank} outside [0, {self.nprocs})")

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank``; an out-of-range rank raises
        :class:`MPIError` on every communicator, world or split."""
        if not 0 <= rank < self.nprocs:
            self.check_rank(rank)
        return self._node_of[rank]

    def node_groups(self) -> Dict[int, List[int]]:
        """Node index -> member ranks (ascending), for occupied nodes.

        Built lazily from the placement table and cached — placement is
        fixed for the life of the communicator.  Callers must not
        mutate the returned lists.
        """
        if self._node_groups is None:
            groups: Dict[int, List[int]] = {}
            for r in range(self.nprocs):
                groups.setdefault(self._node_of[r], []).append(r)
            self._node_groups = groups
        return self._node_groups

    def node_leader(self, node: int) -> int:
        """Lowest rank placed on ``node`` (the two-level staging leader)."""
        return self.node_groups()[node][0]

    def handle(self, rank: int) -> "CommHandle":
        """The per-rank view of this communicator."""
        self.check_rank(rank)
        return CommHandle(self, rank)

    # -- matching engine -----------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        key = (msg.source, msg.tag)
        event = _pop(self._posted[msg.dest], key)
        if event is None:
            _push(self._unexpected[msg.dest], key, msg)
        else:
            event.succeed(msg)

    def _sequence(self, msg: Message, seq: int, dropped: bool) -> None:
        """Hand the ``seq``-th message of its pair, off the wire, to
        the matching engine in send order (MPI's non-overtaking rule)."""
        pair = (msg.source, msg.dest)
        expected = self._pair_next_in.get(pair, 0)
        if seq != expected:
            # Overtook an earlier message of the same pair: hold it back.
            # A dropped message is held as None so pair sequencing still
            # advances past it — otherwise every later message of this
            # pair would wait forever on a delivery that never happens.
            self._held_back.setdefault(pair, {})[seq] = (
                None if dropped else msg)
            return
        if not dropped:
            self._deliver(msg)
        expected += 1
        held = self._held_back.get(pair)
        while held and expected in held:
            held_msg = held.pop(expected)
            if held_msg is not None:
                self._deliver(held_msg)
            expected += 1
        self._pair_next_in[pair] = expected

    def describe_blocked(self) -> List[str]:
        """Per-rank blocked-state lines for deadlock reports: pending
        receives with source/tag, the wait-for cycle when one exists,
        and (with the sanitizer on) each rank's last collective."""
        from ..check.protocol import describe_blocked
        return describe_blocked(self, MIN_RESERVED_TAG)


class _Send:
    """One message from :meth:`CommHandle.isend` to delivery, without a
    process: the wire (:meth:`~repro.cluster.Network.start_transfer`),
    the fault plan's drop or delay (a timer), pair sequencing and
    delivery, then :attr:`done`, the send request's completion event,
    fired after the deliveries it made."""

    __slots__ = ("comm", "msg", "seq", "done")

    def __init__(self, comm: Communicator, msg: Message, seq: int) -> None:
        self.comm = comm
        self.msg = msg
        self.seq = seq
        self.done = Event(comm.kernel, name="send")
        comm.machine.network.start_transfer(
            comm._node_of[msg.source], comm._node_of[msg.dest], msg.nbytes,
            self._arrived)

    def _arrived(self) -> None:
        faults = self.comm.machine.faults
        if faults is None:
            self._land(None, False)
            return
        dropped, delay = faults.message_decision(self.msg)
        if delay > 0:
            timer = Timeout(self.comm.kernel, delay)
            timer.callbacks.append(  # type: ignore[union-attr]
                lambda _timer: self._land(faults, False))
            return
        self._land(faults, dropped)

    def _land(self, faults: Any, dropped: bool) -> None:
        msg = self.msg
        if not dropped and faults is not None and faults.plan.corrupt_msg_rate:
            # In-transit bit flip on the delivered copy; the sender's
            # object is untouched, so a re-send draws a fresh decision
            # (the repair round uses a fresh tag).
            msg.data = faults.corrupt_message(msg)
        self.comm._sequence(msg, self.seq, dropped)
        self.done.succeed()


@dataclass(frozen=True)
class NodeSplit:
    """One rank's view of the two-level (node-aware) communicator pair.

    Produced by :meth:`CommHandle.node_split`.  ``node_comm`` contains
    the ranks sharing this rank's node, ordered by world rank (so its
    rank 0 is the leader); ``leader_comm`` contains one leader per
    occupied node and is ``None`` on non-leader ranks (the
    ``MPI_UNDEFINED`` side of the split).
    """

    node_comm: "CommHandle"
    leader_comm: Optional["CommHandle"]
    #: World rank of this node's leader (lowest rank on the node).
    leader: int
    #: World ranks placed on this node, ascending.
    node_ranks: List[int]
    #: Node index this rank lives on.
    node_index: int

    @property
    def is_leader(self) -> bool:
        """Whether this rank is its node's staging leader."""
        return self.leader_comm is not None


class CommHandle:
    """One rank's endpoint of a :class:`Communicator`.

    All communication methods are generators: call them with
    ``yield from`` inside a rank process (or wrap in
    ``kernel.process`` for explicit concurrency).
    """

    def __init__(self, comm: Communicator, rank: int) -> None:
        self.comm = comm
        self.rank = rank
        #: Per-rank collective sequence number; advances identically on
        #: every rank because collectives are called in program order.
        self._coll_seq = 0
        #: Cached :meth:`node_split` result (built on first use).
        self._node_split: Optional["NodeSplit"] = None

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.comm.nprocs

    @property
    def kernel(self) -> Kernel:
        """The owning simulation kernel."""
        return self.comm.kernel

    # -- sends -----------------------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0,
              nbytes: Optional[int] = None) -> Request:
        """Start a nonblocking send; returns a :class:`Request`."""
        comm = self.comm
        comm.check_rank(dest)
        if tag < 0:
            raise MPIError(f"negative tag {tag}")
        size = wire_size(data) if nbytes is None else int(nbytes)
        if size < 0:
            raise MPIError(f"negative message size {size}")
        msg = Message(self.rank, dest, tag, data, size)
        m = metrics.current()
        if m is not None:
            m.count("mpi.messages")
            m.count("mpi.wire_bytes", size)
            m.observe("mpi.msg_bytes", size, MSG_BYTES_EDGES)
        pair = (self.rank, dest)
        seq = comm._pair_next_out.get(pair, 0)
        comm._pair_next_out[pair] = seq + 1
        return Request(_Send(comm, msg, seq).done)

    def send(self, data: Any, dest: int, tag: int = 0,
             nbytes: Optional[int] = None) -> Generator:
        """Blocking send (completes when the message is delivered)."""
        req = self.isend(data, dest, tag, nbytes)
        yield req.event
        return None

    # -- receives ----------------------------------------------------------
    def irecv(self, source: int, tag: int) -> Request:
        """Post a nonblocking receive from ``source`` with ``tag``; the
        request's value is the payload."""
        comm = self.comm
        comm.check_rank(source)
        if tag < 0:
            raise MPIError(f"negative tag {tag}")
        ev = self.kernel.event(name="recv")
        key = (source, tag)
        msg = _pop(comm._unexpected[self.rank], key)
        if msg is not None:
            ev.succeed(msg)
            return Request(ev)
        posted = comm._posted[self.rank]
        _push(posted, key, ev)
        return Request(ev, posted, key)

    def recv(self, source: int, tag: int) -> Generator:
        """Blocking receive; returns the payload."""
        req = self.irecv(source, tag)
        msg = yield req.event
        return msg.data

    def recv_msg(self, source: int, tag: int) -> Generator:
        """Blocking receive returning the full :class:`Message` envelope
        (source/tag/nbytes included) — the MPI_Status-bearing variant."""
        req = self.irecv(source, tag)
        msg = yield req.event
        return msg

    # -- communicator management ---------------------------------------------
    def split(self, color: Any, key: int = 0) -> Generator:
        """``MPI_Comm_split``: partition the communicator by ``color``.

        Collective over all ranks.  Returns a :class:`CommHandle` on the
        new communicator holding the ranks that passed the same color,
        ordered by ``(key, old rank)`` — or ``None`` for ranks passing
        ``color=None`` (the ``MPI_UNDEFINED`` case).
        """
        from . import collectives as coll
        entries = yield from coll.allgather(self, (color, key, self.rank))
        if color is None:
            return None
        members = sorted((k, r) for c, k, r in entries if c == color)
        ranks = [r for _k, r in members]
        newrank = ranks.index(self.rank)
        registry = self.comm._subcomms
        # Keyed by membership, not by (call site, color): two splits
        # producing the same ordered group share one Communicator, so a
        # long sweep that splits every iteration cannot grow the
        # registry past the number of distinct groups.  Reuse is safe
        # because every collective drains fully before returning and
        # each call gets fresh handles whose tag sequence restarts
        # identically on all members.
        group_key = tuple(ranks)
        if group_key not in registry:
            node_map = [self.comm.node_of(r) for r in ranks]
            registry[group_key] = Communicator(
                self.kernel, self.comm.machine, len(ranks),
                node_map=node_map)
        return registry[group_key].handle(newrank)

    def node_split(self) -> Generator:
        """Node-aware sub-communicators for two-level aggregation.

        Collective over all ranks (two :meth:`split` calls under the
        hood).  Returns a :class:`NodeSplit`: an intra-node communicator
        whose rank 0 is this node's leader (its lowest world rank), and
        a leaders-only communicator (``None`` on non-leader ranks).  The
        result is cached on the handle, so repeated two-level operations
        in one job pay the split allgathers once; after the first call
        it returns without yielding.
        """
        if self._node_split is not None:
            return self._node_split
        comm = self.comm
        my_node = comm.node_of(self.rank)
        node_ranks = list(comm.node_groups()[my_node])
        leader = node_ranks[0]
        # key=0 orders the intra-node comm by world rank, putting the
        # leader at intra-node rank 0 by construction.
        node_comm = yield from self.split(my_node)
        leader_comm = yield from self.split(0 if self.rank == leader else None)
        self._node_split = NodeSplit(
            node_comm=node_comm, leader_comm=leader_comm, leader=leader,
            node_ranks=node_ranks, node_index=my_node)
        return self._node_split

    # -- misc ---------------------------------------------------------------
    def trace_collective(self, op: str, payload: Any = None) -> None:
        """Report one collective call site to the protocol verifier.

        Called by every function in :mod:`repro.mpi.collectives` on
        entry.  With the sanitizer detached (the default) this is a
        single attribute test; with it attached the ledger validates
        op name, per-comm sequence number and payload signature against
        the other ranks and raises :class:`MPIError` on divergence.
        """
        sanitizer = self.comm.sanitizer
        if sanitizer is not None:
            sanitizer.record(self.rank, op, payload)
        m = metrics.current()
        if m is not None:
            m.count(f"mpi.coll.{op}")

    def next_collective_tags(self, n_tags: int = 1) -> int:
        """Reserve ``n_tags`` consecutive internal tags for one collective
        call; returns the first tag.  Must be invoked in identical order
        on every rank (SPMD discipline), as in a real MPI library."""
        base = MIN_RESERVED_TAG + self._coll_seq
        self._coll_seq += n_tags
        return base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CommHandle rank={self.rank}/{self.size} comm={self.comm.id}>"
