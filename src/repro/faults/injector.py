"""Applying a :class:`~repro.faults.plan.FaultPlan` to a live machine.

The :class:`FaultInjector` is the runtime half of fault injection: it
holds the plan, the per-OST and per-message-pair counters the stateless
decisions are keyed by, and the chronological log of everything that
was injected or recovered (:class:`FaultRecord`).  Attach it with
:meth:`FaultInjector.attach`, which wires the three hook points:

* ``machine.fs.faults`` — consulted by :meth:`repro.pfs.LustreFS.read`
  for per-segment slow OST requests and transient EIOs;
* ``machine.faults`` — consulted by every message sent with
  :meth:`repro.mpi.CommHandle.isend`, once it is off the wire, for
  drops and delays;
* the kernel's deadlock watcher list — so a hang that follows an
  injected fault names that fault in the
  :class:`~repro.errors.DeadlockError` report, distinguishing
  fault-induced deadlocks from protocol bugs.

Message drops are only honoured inside tag ranges the resilient
protocol explicitly registers (:meth:`allow_drops`): the model is a
reliable control plane (collectives, agreement rounds) over a lossy
bulk data path, so injected loss can never wedge the recovery machinery
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..integrity.corrupt import corrupt_object
from ..obs import metrics
from .plan import FaultPlan


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault or recovery action, as it happened.

    ``kind`` is namespaced: ``inject:*`` for faults the injector
    created (``inject:ost-slow``, ``inject:ost-fail``,
    ``inject:agg-crash``, ``inject:agg-straggle``, ``inject:msg-drop``,
    ``inject:msg-delay``, ``inject:ost-corrupt``,
    ``inject:msg-corrupt``), ``detect:*`` for checksum verdicts of the
    integrity layer (``detect:ost-corrupt``, ``detect:msg-corrupt``,
    ``detect:partial-corrupt``) and ``recover:*`` for the protocol's
    responses (``recover:retry``, ``recover:failover``,
    ``recover:degraded``).
    """

    time: float
    kind: str
    location: str
    detail: str

    def format(self) -> str:
        """``t=... kind @location: detail`` — the human-readable line."""
        return f"t={self.time:.6f} {self.kind} @{self.location}: {self.detail}"


class FaultInjector:
    """Runtime fault injection for one simulated machine.

    Parameters
    ----------
    plan:
        The seeded schedule to apply.
    kernel:
        The owning simulation kernel (timestamps the records).
    """

    def __init__(self, plan: FaultPlan, kernel) -> None:
        self.plan = plan
        self.kernel = kernel
        #: Chronological log of injected faults and recovery actions.
        self.records: List[FaultRecord] = []
        self._ost_request_index: Dict[int, int] = {}
        #: Per-(file, digest block) read occurrence counters, so every
        #: re-read of a block draws a fresh corruption decision.
        self._block_occurrence: Dict[Tuple[str, int], int] = {}
        #: Tag ranges (lo, hi) whose messages the plan may drop.
        self._droppable: List[Tuple[int, int]] = []

    # -- wiring ------------------------------------------------------------
    @classmethod
    def attach(cls, machine, plan: FaultPlan) -> "FaultInjector":
        """Create an injector and wire it into ``machine``'s file
        system, communicators and deadlock diagnostics."""
        injector = cls(plan, machine.kernel)
        machine.faults = injector
        machine.fs.faults = injector
        machine.kernel.watch_deadlocks(injector)
        return injector

    # -- logging -----------------------------------------------------------
    def record(self, kind: str, location: str, detail: str) -> None:
        """Append one :class:`FaultRecord` stamped with simulated now.

        The single choke point of the ledger: every injection,
        detection and recovery passes through here, so this is also
        where the ``faults.<kind>`` observability counters accumulate.
        """
        self.records.append(
            FaultRecord(self.kernel.now, kind, location, detail))
        m = metrics.current()
        if m is not None:
            m.count(f"faults.{kind}")

    def injected(self) -> List[FaultRecord]:
        """Only the ``inject:*`` records (the fault schedule as it ran)."""
        return [r for r in self.records if r.kind.startswith("inject:")]

    def recovered(self) -> List[FaultRecord]:
        """Only the ``recover:*`` records (what the protocol did)."""
        return [r for r in self.records if r.kind.startswith("recover:")]

    def detected(self) -> List[FaultRecord]:
        """Only the ``detect:*`` records (the integrity layer's
        checksum verdicts, logged via :meth:`record`)."""
        return [r for r in self.records if r.kind.startswith("detect:")]

    def describe_blocked(self) -> List[str]:
        """Deadlock-report lines: the most recent injected fault, so a
        fault-induced hang is distinguishable from a protocol bug."""
        injected = self.injected()
        if not injected:
            return ["fault injection active; no fault injected before "
                    "the hang (suspect a protocol bug, not the plan)"]
        last = injected[-1]
        return [f"{len(injected)} fault(s) injected; last before the "
                f"hang: {last.format()}"]

    # -- OST hook (consulted by LustreFS.read) -----------------------------
    def ost_decision(self, ost_index: int) -> Tuple[float, bool]:
        """``(service multiplier, fail?)`` for the next request at one
        OST; advances that OST's request counter."""
        k = self._ost_request_index.get(ost_index, 0)
        self._ost_request_index[ost_index] = k + 1
        slow, fail = self.plan.ost_fault(ost_index, k)
        if fail:
            self.record("inject:ost-fail", f"ost{ost_index}",
                        f"transient EIO on request #{k}")
        elif slow > 1.0:
            self.record("inject:ost-slow", f"ost{ost_index}",
                        f"request #{k} served at {slow:g}x")
        return slow, fail

    # -- aggregator hooks (consulted by the resilient loops) ---------------
    def crash_iteration(self, rank: int, n_windows: int,
                        round_index: int = 0) -> Optional[int]:
        """Window index at which this aggregator fail-stops, or None."""
        t = self.plan.aggregator_crash(rank, n_windows, round_index)
        if t is not None:
            self.record("inject:agg-crash", f"rank{rank}",
                        f"fail-stop before window {t} of round "
                        f"{round_index}")
        return t

    def straggle_delay(self, rank: int, window: int,
                       round_index: int = 0) -> float:
        """Extra stall before this aggregator serves one window."""
        delay = self.plan.aggregator_straggle(rank, window, round_index)
        if delay > 0:
            self.record("inject:agg-straggle", f"rank{rank}",
                        f"window {window} of round {round_index} "
                        f"delayed {delay:g}s")
        return delay

    # -- message hook (consulted by each isend once off the wire) ----------
    def allow_drops(self, tag_lo: int, tag_hi: int) -> None:
        """Declare ``[tag_lo, tag_hi)`` a droppable data-plane range."""
        self._droppable.append((tag_lo, tag_hi))

    def _droppable_tag(self, tag: int) -> bool:
        return any(lo <= tag < hi for lo, hi in self._droppable)

    def message_decision(self, msg) -> Tuple[bool, float]:
        """``(drop?, extra delay)`` for one in-flight message.  Drops
        apply only inside registered data-plane tag ranges; delays apply
        to any message (a late control message is safe, a lost one is
        not)."""
        dropped, delay = self.plan.message_fault(msg.source, msg.dest,
                                                 msg.tag)
        if dropped:
            if not self._droppable_tag(msg.tag):
                dropped = False
            else:
                self.record("inject:msg-drop",
                            f"{msg.source}->{msg.dest}",
                            f"tag {msg.tag}, {msg.nbytes}B lost on the "
                            f"wire")
                return True, 0.0
        if delay > 0:
            self.record("inject:msg-delay", f"{msg.source}->{msg.dest}",
                        f"tag {msg.tag} delivered {delay:g}s late")
        return False, delay

    # -- silent corruption hooks -------------------------------------------
    def corrupt_served(self, file, offset: int, data: bytes) -> bytes:
        """Maybe flip one bit per digest block of a served extent.

        Called by :meth:`repro.pfs.LustreFS.read` on the *served copy*
        — the backing :class:`~repro.pfs.datasource.DataSource` stays
        pristine, so a re-read serves fresh (and freshly-decided)
        bytes.  Decisions are keyed by ``(OST, block, occurrence)``
        with a per-``(file, block)`` occurrence counter, making the
        corruption transient exactly like an injected EIO.
        """
        nbytes = len(data)
        if nbytes == 0:
            return data
        block = file.digest_block or file.layout.stripe_size
        end = offset + nbytes
        buf = None
        for b in range(offset // block, (end - 1) // block + 1):
            k = self._block_occurrence.get((file.name, b), 0)
            self._block_occurrence[(file.name, b)] = k + 1
            ost = file.layout.ost_of(b * block)
            u = self.plan.ost_corruption(ost, b, k)
            if u is None:
                continue
            lo = max(offset, b * block)
            hi = min(end, (b + 1) * block)
            nbits = (hi - lo) * 8
            bit = min(int(u * nbits), nbits - 1)
            if buf is None:
                buf = bytearray(data)
            pos = (lo - offset) * 8 + bit
            buf[pos >> 3] ^= 1 << (pos & 7)
            self.record("inject:ost-corrupt", f"ost{ost}",
                        f"bit {bit} of block {b} of {file.name!r} "
                        f"flipped on read #{k}")
        return bytes(buf) if buf is not None else data

    def corrupt_message(self, msg):
        """Maybe flip one bit in a delivered data-plane payload.

        Called for every message sent with
        :meth:`repro.mpi.CommHandle.isend` that was *not* dropped, once
        it is off the wire (after an injected delay).  Like drops, corruption only
        applies inside registered droppable tag ranges: the control
        plane (collectives, agreement rounds) stays trustworthy, so
        checksum verdicts themselves cannot be forged.  Returns the
        (possibly corrupted copy of the) payload.
        """
        if not self._droppable_tag(msg.tag):
            return msg.data
        draw = self.plan.message_corruption(msg.source, msg.dest, msg.tag)
        if draw is None:
            return msg.data
        corrupted, desc = corrupt_object(msg.data, *draw)
        if not desc:  # no corruptible leaf (e.g. a bare key tuple)
            return msg.data
        self.record("inject:msg-corrupt", f"{msg.source}->{msg.dest}",
                    f"tag {msg.tag}: {desc}")
        return corrupted
