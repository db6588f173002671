"""Attachable end-to-end integrity checking for one simulated machine.

Mirror of :class:`~repro.faults.injector.FaultInjector`: integrity is
an opt-in runtime attachment (``IntegrityManager.attach(machine)``), so
the fault-free hot path — every existing figure — pays nothing when it
is off.  Attached, it wires all three verification points:

* **storage** — every :meth:`repro.pfs.LustreFS.read` recomputes the
  per-stripe-block CRC32C digests of the served extent against the
  digests stored on the :class:`~repro.pfs.PFSFile` at create time
  (partial boundary blocks are stitched with pristine source bytes),
  raising :class:`~repro.errors.IntegrityError` on mismatch;
* **wire** — the resilient exchange stamps every data-plane window
  message with a :func:`~repro.integrity.digest.payload_digest`
  checked on receive; a mismatch turns the window into a *missed*
  window (re-served next round) without suspecting the live server;
* **reduce** — partial results are stamped with a provenance digest at
  map time and re-verified before combining, the last line of defence
  against corruption that slipped past the wire check.

Detections are logged as ``detect:*`` :class:`~repro.faults.FaultRecord`
entries on the machine's injector when one is attached (so inject,
detect and recover records interleave in one chronological ledger and
one Chrome trace), falling back to a local record list otherwise.
"""

from __future__ import annotations

from typing import Any, List

from ..errors import IntegrityError
from ..obs import metrics
from .digest import crc32c, partial_digest

#: Counter keys reported by :meth:`IntegrityManager.stats`.
_DETECT_KINDS = ("ost", "msg", "partial")


class IntegrityManager:
    """Runtime integrity verification for one simulated machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: Fallback detection log when no injector is attached.
        self.records: List[Any] = []
        #: Stripe blocks digested at create/refresh time.
        self.blocks_digested = 0
        #: Stripe blocks verified on the read path.
        self.blocks_verified = 0
        #: Partial results whose provenance digest was re-checked.
        self.partials_verified = 0
        #: Detections by kind (``ost`` / ``msg`` / ``partial``).
        self.detections = {kind: 0 for kind in _DETECT_KINDS}

    # -- wiring ------------------------------------------------------------
    @classmethod
    def attach(cls, machine) -> "IntegrityManager":
        """Create a manager, wire it into ``machine`` and its file
        system, and digest every already-registered file."""
        manager = cls(machine)
        machine.integrity = manager
        machine.fs.integrity = manager
        for file in machine.fs._files.values():
            manager.ensure_digests(file)
        return manager

    # -- logging -----------------------------------------------------------
    def _log(self, kind: str, location: str, detail: str) -> None:
        faults = self.machine.faults
        if faults is not None:
            # FaultInjector.record also feeds the faults.* counters.
            faults.record(kind, location, detail)
            return
        from ..faults.injector import FaultRecord
        self.records.append(FaultRecord(self.machine.kernel.now, kind,
                                        location, detail))
        m = metrics.current()
        if m is not None:
            m.count(f"faults.{kind}")

    # -- storage path ------------------------------------------------------
    def ensure_digests(self, file) -> None:
        """Compute ``file``'s per-stripe-block digests if absent."""
        if file.block_digests is None:
            self.count_digested(file.compute_digests())

    def count_digested(self, blocks: int) -> None:
        """Count ``blocks`` stripe blocks (re)digested: at create or
        attach time, or by an in-place :meth:`repro.pfs.LustreFS.write`."""
        self.blocks_digested += blocks
        m = metrics.current()
        if m is not None:
            m.count("integrity.blocks_digested", blocks)

    def verify_read(self, file, offset: int, data) -> None:
        """Verify one served extent against ``file``'s block digests.

        Boundary blocks only partially covered by the extent are
        stitched with pristine bytes read straight from the source
        (corruption is injected on the *served copy*, never the
        source), so every digest comparison covers a full block.
        Raises :class:`~repro.errors.IntegrityError` naming the failed
        blocks and their OSTs; every failed block is also logged as a
        ``detect:ost-corrupt`` record.
        """
        nbytes = len(data)
        if nbytes == 0:
            return
        self.ensure_digests(file)
        block_size = file.digest_block
        view = memoryview(data)
        end = offset + nbytes
        bad = []
        verified_before = self.blocks_verified
        for b in range((offset // block_size), ((end - 1) // block_size) + 1):
            b_lo = b * block_size
            b_hi = min(b_lo + block_size, file.size)
            lo = max(offset, b_lo)
            hi = min(end, b_hi)
            crc = 0
            if lo > b_lo:
                crc = crc32c(file.source.read(b_lo, lo - b_lo), crc)
            crc = crc32c(view[lo - offset:hi - offset], crc)
            if hi < b_hi:
                crc = crc32c(file.source.read(hi, b_hi - hi), crc)
            self.blocks_verified += 1
            if crc != file.block_digests[b]:
                bad.append((b, file.layout.ost_of(b_lo)))
        m = metrics.current()
        if m is not None:
            m.count("integrity.blocks_verified",
                    self.blocks_verified - verified_before)
        if not bad:
            return
        self.detections["ost"] += len(bad)
        for b, ost in bad:
            self._log("detect:ost-corrupt", f"ost{ost}",
                      f"block {b} of {file.name!r} failed CRC32C over "
                      f"extent [{offset}, {end})")
        blocks = ", ".join(f"block {b} (OST {ost})" for b, ost in bad)
        raise IntegrityError(
            f"checksum mismatch reading [{offset}, {end}) of "
            f"{file.name!r}: {blocks}")

    # -- wire path ---------------------------------------------------------
    def wire_detection(self, rank: int, source: int, key, tag: int) -> None:
        """Log one receive-side payload-digest mismatch (the resilient
        exchange then treats the window as missed and re-serves it)."""
        self.detections["msg"] += 1
        self._log("detect:msg-corrupt", f"{source}->{rank}",
                  f"window {key} payload failed its wire digest on tag "
                  f"{tag}; NACKed for re-serve")

    # -- reduce path -------------------------------------------------------
    def verify_partials(self, ctx, partials, where: str) -> None:
        """Re-verify stamped provenance digests before combining.

        Partials without a digest (produced with integrity off, or
        self-served before stamping) are skipped.  A mismatch here
        means corruption slipped past the wire check — there is no
        repair path this late, so it raises.
        """
        for p in partials:
            if p is None or getattr(p, "digest", None) is None:
                continue
            self.partials_verified += 1
            m = metrics.current()
            if m is not None:
                m.count("integrity.partials_verified")
            if partial_digest(p) != p.digest:
                self.detections["partial"] += 1
                self._log("detect:partial-corrupt", f"rank{ctx.rank}",
                          f"partial for rank {p.dest_rank} iteration "
                          f"{p.iteration} failed its provenance digest "
                          f"at {where}")
                raise IntegrityError(
                    f"provenance digest mismatch at {where}: partial for "
                    f"rank {p.dest_rank}, iteration {p.iteration}")

    def detected(self) -> int:
        """Total detections across all three verification points."""
        return sum(self.detections.values())
