"""Unit tests for the Lustre-like file system."""

import numpy as np
import pytest

from repro.config import CostModel
from repro.errors import PFSError
from repro.faults import FaultInjector, FaultPlan
from repro.pfs import ArraySource, LustreFS, ProceduralSource, linear_field
from repro.sim import Kernel


def make_fs(n_osts=4, **cost_kw):
    k = Kernel()
    cost = CostModel(**cost_kw) if cost_kw else CostModel()
    return k, LustreFS(k, n_osts, cost, default_stripe_size=100)


def test_create_and_lookup():
    k, fs = make_fs()
    f = fs.create_file("a", ProceduralSource(100))
    assert fs.lookup("a") is f
    with pytest.raises(PFSError):
        fs.create_file("a", ProceduralSource(10))
    with pytest.raises(PFSError):
        fs.lookup("missing")


def test_stripe_count_all_by_default():
    k, fs = make_fs(n_osts=4)
    f = fs.create_file("a", ProceduralSource(1000))
    assert f.layout.stripe_count == 4


def test_stripe_count_validation():
    k, fs = make_fs(n_osts=4)
    with pytest.raises(PFSError):
        fs.create_file("a", ProceduralSource(10), stripe_count=5)
    with pytest.raises(PFSError):
        fs.create_file("a", ProceduralSource(10), start_ost=4)


def test_read_returns_correct_bytes():
    k, fs = make_fs()
    f = fs.create_procedural_file("a", 100, dtype=np.float64,
                                  func=linear_field())

    def body():
        data = yield from fs.read(f, 8 * 10, 8 * 5)
        return np.frombuffer(data, dtype=np.float64)

    p = k.process(body())
    k.run()
    assert np.array_equal(p.value, np.arange(10, 15, dtype=np.float64))


def test_read_time_seek_plus_bandwidth_single_ost():
    k, fs = make_fs(n_osts=1, ost_seek=1e-3, ost_bandwidth=1e6)
    f = fs.create_file("a", ProceduralSource(10**6, np.uint8))

    def body():
        yield from fs.read(f, 0, 10**5)

    k.process(body())
    k.run()
    assert k.now == pytest.approx(1e-3 + 0.1)


def test_striped_read_parallel_across_osts():
    # 4 OSTs, stripe 100: a 400-byte read = 4 concurrent 100-byte services.
    k, fs = make_fs(n_osts=4, ost_seek=0.0, ost_bandwidth=100.0)
    f = fs.create_file("a", ProceduralSource(1000, np.uint8))

    def body():
        yield from fs.read(f, 0, 400)

    k.process(body())
    k.run()
    assert k.now == pytest.approx(1.0)  # not 4.0


def test_contention_on_one_ost_queues():
    k, fs = make_fs(n_osts=1, ost_seek=0.0, ost_bandwidth=100.0)
    f = fs.create_file("a", ProceduralSource(1000, np.uint8))
    done = []

    def body(i):
        yield from fs.read(f, 0, 100)
        done.append(k.now)

    k.process(body(0))
    k.process(body(1))
    k.run()
    assert done == [1.0, 2.0]


def test_read_past_eof_rejected():
    k, fs = make_fs()
    f = fs.create_file("a", ProceduralSource(10, np.uint8))
    with pytest.raises(PFSError):
        list(fs.read(f, 5, 6))


def test_zero_byte_read_pays_latency():
    k, fs = make_fs(ost_seek=1e-3)
    f = fs.create_file("a", ProceduralSource(10, np.uint8))

    def body():
        data = yield from fs.read(f, 0, 0)
        return data

    p = k.process(body())
    k.run()
    assert p.value == b""
    assert k.now == pytest.approx(1e-3)


def test_write_roundtrip():
    k, fs = make_fs()
    f = fs.create_file("a", ArraySource(np.zeros(50, dtype=np.uint8)))

    def body():
        yield from fs.write(f, 10, bytes(range(5)))
        data = yield from fs.read(f, 10, 5)
        return data

    p = k.process(body())
    k.run()
    assert p.value == bytes(range(5))


def test_write_to_read_only_rejected():
    k, fs = make_fs()
    f = fs.create_file("a", ProceduralSource(10, np.uint8))
    with pytest.raises(PFSError):
        list(fs.write(f, 0, b"x"))


def test_ost_accounting_and_slowdown():
    k, fs = make_fs(n_osts=1, ost_seek=0.0, ost_bandwidth=100.0)
    f = fs.create_file("a", ProceduralSource(1000, np.uint8))

    def body():
        yield from fs.read(f, 0, 100)

    k.process(body())
    k.run()
    assert fs.total_bytes_served() == 100
    assert fs.osts[0].requests_served == 1
    # A straggling disk is an injected fault: every request at 3x.
    injector = FaultInjector(
        FaultPlan(ost_slow_rate=1.0, ost_slow_factor=3.0), k)
    fs.faults = injector
    k2start = k.now
    k.process(body())
    k.run()
    assert k.now - k2start == pytest.approx(3.0)
    assert [r.kind for r in injector.injected()] == ["inject:ost-slow"]
    assert fs.osts[0].requests_served == 2
