"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is a *pure function* from fault identities to fault
decisions: every decision is derived by hashing ``(seed, kind, key)``
with SHA-256, so the schedule

* is identical across repeats of the same seeded run (the determinism
  contract of :mod:`repro.sim` extends to faulted runs),
* does not depend on the order in which the simulator happens to ask
  (no hidden RNG stream state to perturb), and
* is identical on every rank without communication — the property the
  recovery protocol's SPMD agreement rounds rely on for testability.

Three fault classes mirror where production collective I/O degrades:

``ost``
    Slow or failed OST requests (a struggling disk / transient EIO on
    the Lustre data path), keyed by ``(ost index, request index)``.
``agg``
    Straggler or fail-stop aggregator ranks (the overloaded request-
    aggregation processes of Kang et al.), keyed by
    ``(rank, serving round)`` / ``(rank, window, round)``.
``msg``
    Dropped or delayed point-to-point data-plane messages (the lossy
    bulk network C-Coll trades fidelity against), keyed by
    ``(source, dest, tag)``.
``corrupt``
    *Silent* corruption — a bit flipped in an OST's served bytes, keyed
    by ``(ost, block, occurrence)`` (the occurrence counter makes
    re-reads draw fresh decisions, so retry can repair), or a bit
    flipped in an in-transit data-plane payload, keyed by
    ``(source, dest, tag)``.  Without the :mod:`repro.integrity` layer
    attached, these flips flow straight into the reduction — exactly
    the failure mode the checksums exist to catch.

The plan only *decides*; :class:`repro.faults.injector.FaultInjector`
applies decisions at the hook points and logs what was injected.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import FaultError

#: 2**64, the denominator turning a hashed 8-byte prefix into [0, 1).
_DENOM = float(1 << 64)


def _uniform(seed: int, kind: str, *key: int) -> float:
    """Deterministic uniform draw in [0, 1) for one fault identity.

    Stateless by construction: the value depends only on
    ``(seed, kind, key)``, never on how many draws happened before.
    """
    material = f"{seed}:{kind}:" + ":".join(str(k) for k in key)
    digest = hashlib.sha256(material.encode("ascii")).digest()
    return struct.unpack(">Q", digest[:8])[0] / _DENOM


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of what goes wrong and how badly.

    All ``*_rate`` fields are probabilities in [0, 1] applied
    independently per fault identity.  A plan with every rate at zero
    injects nothing (and the resilient protocols then behave like their
    fault-free counterparts, numerically).

    Parameters
    ----------
    seed:
        Root of every decision; two plans with equal fields produce
        bit-identical schedules.
    ost_slow_rate / ost_slow_factor:
        Fraction of OST requests served at ``slow_factor`` times the
        normal service time (a straggling disk).
    ost_fail_rate:
        Fraction of OST requests that fail with a transient EIO
        (:class:`~repro.errors.TransientIOError`) after paying the seek
        latency — the retryable storage fault.
    agg_crash_rate:
        Probability that an aggregator rank fail-stops during one
        serving round; the crash iteration is drawn uniformly over the
        rank's windows.
    agg_straggle_rate / agg_straggle_seconds:
        Fraction of (aggregator, window) pairs delayed by an extra
        ``agg_straggle_seconds`` before the window is served.  Delays
        beyond the receiver timeout are indistinguishable from a crash
        and trigger failover — exactly the ambiguity real detectors
        face.
    msg_drop_rate:
        Fraction of *droppable* data-plane messages lost after
        occupying the wire (the control plane stays reliable; see
        :meth:`repro.faults.injector.FaultInjector.allow_drops`).
    msg_delay_rate / msg_delay_seconds:
        Fraction of data-plane messages delivered late by
        ``msg_delay_seconds``.
    corrupt_ost_rate:
        Probability that one (digest block, read occurrence) of a
        served extent has a bit silently flipped in the served copy —
        the source stays pristine, so a re-read can repair.
    corrupt_msg_rate:
        Probability that a delivered data-plane message (inside a
        registered droppable tag range) has one bit of its payload
        flipped in transit.

    The corruption rates are deliberately *not* part of
    :meth:`uniform` — the fault-rate experiments (Figure 14) predate
    them and must keep their exact schedules; corruption sweeps set the
    ``corrupt_*`` fields explicitly (Figure 15, the chaos campaign).
    """

    seed: int = 0
    ost_slow_rate: float = 0.0
    ost_slow_factor: float = 8.0
    ost_fail_rate: float = 0.0
    agg_crash_rate: float = 0.0
    agg_straggle_rate: float = 0.0
    agg_straggle_seconds: float = 0.05
    msg_drop_rate: float = 0.0
    msg_delay_rate: float = 0.0
    msg_delay_seconds: float = 0.01
    corrupt_ost_rate: float = 0.0
    corrupt_msg_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ost_slow_rate", "ost_fail_rate", "agg_crash_rate",
                     "agg_straggle_rate", "msg_drop_rate", "msg_delay_rate",
                     "corrupt_ost_rate", "corrupt_msg_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value}")
        if self.ost_slow_factor < 1.0:
            raise FaultError(
                f"ost_slow_factor must be >= 1, got {self.ost_slow_factor}")
        for name in ("agg_straggle_seconds", "msg_delay_seconds"):
            if getattr(self, name) < 0:
                raise FaultError(f"{name} must be >= 0")

    @classmethod
    def uniform(cls, seed: int, rate: float, **overrides) -> "FaultPlan":
        """The one-knob plan of the fault-rate experiments: apply
        ``rate`` to every fault class at once (slow and failed OST
        requests, aggregator crashes and stragglers, message drops and
        delays)."""
        fields = dict(
            seed=seed,
            ost_slow_rate=rate, ost_fail_rate=rate,
            agg_crash_rate=rate, agg_straggle_rate=rate,
            msg_drop_rate=rate, msg_delay_rate=rate,
        )
        fields.update(overrides)
        return cls(**fields)

    @property
    def any_faults(self) -> bool:
        """Whether this plan can inject anything at all."""
        return any((self.ost_slow_rate, self.ost_fail_rate,
                    self.agg_crash_rate, self.agg_straggle_rate,
                    self.msg_drop_rate, self.msg_delay_rate,
                    self.corrupt_ost_rate, self.corrupt_msg_rate))

    # -- decisions ---------------------------------------------------------
    def ost_fault(self, ost_index: int, request_index: int
                  ) -> Tuple[float, bool]:
        """``(service multiplier, transient failure?)`` for the
        ``request_index``-th request arriving at OST ``ost_index``."""
        slow = 1.0
        if self.ost_slow_rate and _uniform(self.seed, "ost-slow",
                                           ost_index, request_index) \
                < self.ost_slow_rate:
            slow = self.ost_slow_factor
        fail = bool(self.ost_fail_rate
                    and _uniform(self.seed, "ost-fail", ost_index,
                                 request_index) < self.ost_fail_rate)
        return slow, fail

    def aggregator_crash(self, rank: int, n_windows: int,
                         round_index: int = 0) -> Optional[int]:
        """Iteration (0-based, < ``n_windows``) at which aggregator
        ``rank`` fail-stops during serving round ``round_index``, or
        ``None`` if it survives the round."""
        if not self.agg_crash_rate or n_windows <= 0:
            return None
        if _uniform(self.seed, "agg-crash", rank, round_index) \
                >= self.agg_crash_rate:
            return None
        frac = _uniform(self.seed, "agg-crash-at", rank, round_index)
        return min(int(frac * n_windows), n_windows - 1)

    def aggregator_straggle(self, rank: int, window: int,
                            round_index: int = 0) -> float:
        """Extra seconds aggregator ``rank`` stalls before serving its
        ``window``-th window of round ``round_index`` (0.0 = on time)."""
        if not self.agg_straggle_rate:
            return 0.0
        if _uniform(self.seed, "agg-straggle", rank, window, round_index) \
                < self.agg_straggle_rate:
            return self.agg_straggle_seconds
        return 0.0

    def message_fault(self, source: int, dest: int, tag: int
                      ) -> Tuple[bool, float]:
        """``(dropped?, extra delay seconds)`` for one data-plane
        message identity.  Dropping wins over delaying."""
        if self.msg_drop_rate and _uniform(self.seed, "msg-drop", source,
                                           dest, tag) < self.msg_drop_rate:
            return True, 0.0
        if self.msg_delay_rate and _uniform(self.seed, "msg-delay", source,
                                            dest, tag) < self.msg_delay_rate:
            return False, self.msg_delay_seconds
        return False, 0.0

    def ost_corruption(self, ost_index: int, block_index: int,
                       occurrence: int) -> Optional[float]:
        """Bit-position draw in [0, 1) when the ``occurrence``-th read
        of digest block ``block_index`` on OST ``ost_index`` is served
        with a flipped bit, else ``None``.  Keying by occurrence is
        what makes the fault *transient*: a re-read of the same block
        draws an independent decision, so bounded retry can repair."""
        if (not self.corrupt_ost_rate
                or _uniform(self.seed, "ost-corrupt", ost_index, block_index,
                            occurrence) >= self.corrupt_ost_rate):
            return None
        return _uniform(self.seed, "ost-corrupt-bit", ost_index, block_index,
                        occurrence)

    def message_corruption(self, source: int, dest: int, tag: int
                           ) -> Optional[Tuple[float, float]]:
        """``(leaf draw, bit draw)`` in [0, 1) when this data-plane
        message identity is corrupted in transit, else ``None``.  Each
        re-serve of a window uses a fresh tag, so repair rounds draw
        independent decisions."""
        if (not self.corrupt_msg_rate
                or _uniform(self.seed, "msg-corrupt", source, dest, tag)
                >= self.corrupt_msg_rate):
            return None
        return (_uniform(self.seed, "msg-corrupt-leaf", source, dest, tag),
                _uniform(self.seed, "msg-corrupt-bit", source, dest, tag))
