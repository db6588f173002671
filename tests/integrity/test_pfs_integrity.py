"""Storage-path integrity: block digests, read verification, repair."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import IntegrityError
from repro.faults import (FaultInjector, FaultPlan, RetryPolicy,
                          read_with_retry)
from repro.flags import override
from repro.integrity import IntegrityManager, crc32c
from repro.mpi import mpi_run
from repro.obs import metrics
from repro.pfs import ArraySource
from repro.sim import Kernel


def machine():
    return Machine(Kernel(), small_test_machine(nodes=1, cores_per_node=4,
                                                n_osts=3, stripe_size=512))


def make_file(m, nbytes=8192):
    return m.fs.create_procedural_file("d.bin", nbytes // 8,
                                       dtype=np.float64,
                                       func=lambda idx: idx * 1.0,
                                       stripe_size=512)


# -- digesting --------------------------------------------------------------

def test_attach_digests_existing_files():
    m = machine()
    f = make_file(m)
    assert f.block_digests is None  # integrity off: no digests
    integ = IntegrityManager.attach(m)
    assert f.digest_block == 512
    assert len(f.block_digests) == 16
    assert integ.blocks_digested == 16
    # Each digest covers exactly one stripe-size block of the source.
    assert f.block_digests[3] == crc32c(f.source.read(3 * 512, 512))


def test_files_created_after_attach_are_digested():
    m = machine()
    IntegrityManager.attach(m)
    f = make_file(m)
    assert f.block_digests is not None


# -- verify_read ------------------------------------------------------------

def test_verify_read_accepts_pristine_unaligned_extents():
    m = machine()
    f = make_file(m)
    integ = IntegrityManager.attach(m)
    # An extent straddling block boundaries: partial blocks must be
    # stitched with pristine source bytes, so verification still holds.
    integ.verify_read(f, 300, f.source.read(300, 700))
    assert integ.blocks_verified == 2  # blocks 0 and 1
    assert integ.detected() == 0


def test_verify_read_names_block_and_ost():
    m = machine()
    f = make_file(m)
    integ = IntegrityManager.attach(m)
    served = bytearray(f.source.read(512, 512))  # block 1, on OST 1
    served[17] ^= 0x04
    with pytest.raises(IntegrityError, match=r"block 1 \(OST 1\)"):
        integ.verify_read(f, 512, bytes(served))
    assert integ.detections["ost"] == 1
    (rec,) = integ.records  # no injector attached: local fallback log
    assert rec.kind == "detect:ost-corrupt"
    assert rec.location == "ost1"


def test_write_refreshes_covered_digests():
    m = machine()
    data = np.arange(256, dtype=np.float64)
    f = m.fs.create_file("w.bin", ArraySource(data.copy()))
    integ = IntegrityManager.attach(m)
    before = list(f.block_digests)

    def body(ctx):
        payload = np.full(64, 7.5).tobytes()  # block 1 exactly
        yield from m.fs.write(f, 512, payload)
        return None

    mpi_run(m, 1, body)
    assert f.block_digests[1] != before[1]
    assert f.block_digests[0] == before[0]
    # The refreshed digest verifies the newly written bytes.
    integ.verify_read(f, 512, f.source.read(512, 512))
    assert integ.detected() == 0


def write_1000_bytes_at_100(m, f):
    def body(ctx):
        yield from m.fs.write(f, 100, bytes(range(250)) * 4)
        return None

    mpi_run(m, 1, body)


def test_write_counts_refreshed_digests():
    """The blocks an in-place write re-digests are counted like the
    create-time digests, on the manager and in the metrics."""
    m = Machine(Kernel(), small_test_machine(nodes=1, cores_per_node=4,
                                             n_osts=2, stripe_size=512))
    f = m.fs.create_file("w.bin", ArraySource(np.zeros(512)))
    with override(obs=True):
        integ = IntegrityManager.attach(m)
        assert integ.blocks_digested == 8
        write_1000_bytes_at_100(m, f)  # [100, 1100): blocks 0, 1 and 2
        counters = metrics.current().snapshot()["counters"]
    assert integ.blocks_digested == 8 + 3
    assert counters["integrity.blocks_digested"] == 8 + 3


def test_write_refreshes_digests_without_a_manager():
    """Stored digests stay current with no manager attached: a write
    refreshes them, uncounted."""
    m = machine()
    f = m.fs.create_file("w.bin", ArraySource(np.zeros(512)))
    assert f.compute_digests() == 8
    with override(obs=True):
        write_1000_bytes_at_100(m, f)
        counters = metrics.current().snapshot()["counters"]
    assert "integrity.blocks_digested" not in counters
    for b in range(3):
        assert f.block_digests[b] == crc32c(f.source.read(b * 512, 512))


# -- end-to-end: inject, detect, repair -------------------------------------

def test_read_with_retry_repairs_served_corruption():
    """A flipped bit on the served copy surfaces as a retryable
    IntegrityError; the re-read draws a fresh occurrence-keyed decision
    and repairs — same bytes as the pristine source."""
    m = machine()
    f = make_file(m)
    IntegrityManager.attach(m)
    plan = FaultPlan(seed=0, corrupt_ost_rate=0.5)
    # Seed 0: occurrence 0 of (OST 0, block 0) corrupts, occurrence 1
    # is clean — one detection, one retry, repaired.
    assert plan.ost_corruption(0, 0, 0) is not None
    assert plan.ost_corruption(0, 0, 1) is None
    inj = FaultInjector.attach(m, plan)
    policy = RetryPolicy(max_retries=3, backoff_base=0.001)

    def body(ctx):
        data = yield from read_with_retry(ctx, f, 0, 512, policy)
        return bytes(data)

    (data,) = mpi_run(m, 1, body)
    assert data == bytes(f.source.read(0, 512))
    assert [r.kind for r in inj.injected()] == ["inject:ost-corrupt"]
    assert [r.kind for r in inj.detected()] == ["detect:ost-corrupt"]
    (retry,) = inj.recovered()
    assert retry.kind == "recover:retry"
    assert "checksum mismatch" in retry.detail
