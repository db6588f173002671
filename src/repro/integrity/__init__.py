"""End-to-end data integrity: checksummed storage, wire and reduce paths.

**Role.** Detect and repair *silent* corruption — the fault class
PR 3's fail-stop machinery cannot see.  Files carry per-stripe-block
CRC32C digests verified on every read; data-plane window messages carry
payload digests checked on receive; partial results carry provenance
digests re-verified at reduce time.  Detection feeds the existing
recovery machinery (retry for storage, round re-serve for the wire), so
a bit flip costs time and wire bytes, never correctness.

**Paper mapping.** The paper's headline claim is that computing inside
the aggregators yields the *same answer* as post-I/O analysis; this
package is what makes that claim hold on a machine whose disks and
links can lie.  Related work treats wire/storage fidelity as a
first-class concern (C-Coll bounds the error its lossy collectives may
introduce); here the bound is exact: every corruption is caught or the
run fails loudly.

Layout: :mod:`~repro.integrity.digest` computes (CRC32C + canonical
payload digests), :mod:`~repro.integrity.corrupt` flips bits
deterministically (the injector's mutation primitive), and
:mod:`~repro.integrity.manager` attaches verification to a machine the
same way :class:`~repro.faults.FaultInjector` attaches injection.
"""

from .corrupt import corrupt_object, flip_bit
from .digest import DIGEST_NBYTES, crc32c, partial_digest, payload_digest
from .manager import IntegrityManager

__all__ = [
    "DIGEST_NBYTES",
    "crc32c",
    "payload_digest",
    "partial_digest",
    "flip_bit",
    "corrupt_object",
    "IntegrityManager",
]
