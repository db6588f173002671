"""FaultInjector: wiring, counters, droppable ranges, diagnostics."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.errors import DeadlockError
from repro.faults import FaultInjector, FaultPlan
from repro.mpi import mpi_run
from repro.profiling.trace import build_trace
from repro.sim import Kernel


def machine(nodes=2):
    k = Kernel()
    return Machine(k, small_test_machine(nodes=nodes, cores_per_node=4,
                                         n_osts=3, stripe_size=512))


@dataclass
class Msg:
    source: int
    dest: int
    tag: int
    nbytes: int = 64
    data: object = None


# -- wiring -----------------------------------------------------------------

def test_attach_wires_machine_and_fs():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=1, ost_fail_rate=0.5))
    assert m.faults is inj
    assert m.fs.faults is inj
    assert inj.records == []


# -- OST hook ---------------------------------------------------------------

def test_ost_decision_advances_per_ost_counters():
    m = machine()
    plan = FaultPlan(seed=4, ost_fail_rate=0.5)
    inj = FaultInjector.attach(m, plan)
    # The injector walks request indices 0, 1, 2, ... per OST,
    # independently across OSTs, so it reproduces the plan's
    # stateless per-(ost, request) decisions in order.
    for ost in (0, 1):
        for k in range(10):
            assert inj.ost_decision(ost) == plan.ost_fault(ost, k)


def test_ost_failures_are_recorded():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, ost_fail_rate=1.0))
    inj.ost_decision(2)
    assert len(inj.injected()) == 1
    rec = inj.injected()[0]
    assert rec.kind == "inject:ost-fail"
    assert rec.location == "ost2"
    assert "request #0" in rec.detail
    assert "inject:ost-fail" in rec.format()


# -- record filters ---------------------------------------------------------

def test_injected_and_recovered_filters():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4))
    inj.record("inject:msg-drop", "0->1", "x")
    inj.record("recover:retry", "rank0", "y")
    inj.record("inject:agg-crash", "rank4", "z")
    assert [r.kind for r in inj.injected()] == ["inject:msg-drop",
                                                "inject:agg-crash"]
    assert [r.kind for r in inj.recovered()] == ["recover:retry"]


# -- droppable tag ranges ---------------------------------------------------

def test_drops_only_inside_registered_ranges():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, msg_drop_rate=1.0))
    # No range registered: the plan wants to drop, the injector refuses.
    assert inj.message_decision(Msg(0, 1, tag=10)) == (False, 0.0)
    assert inj.injected() == []
    inj.allow_drops(10, 12)
    assert inj.message_decision(Msg(0, 1, tag=10)) == (True, 0.0)
    assert inj.message_decision(Msg(0, 1, tag=11)) == (True, 0.0)
    assert inj.message_decision(Msg(0, 1, tag=12)) == (False, 0.0)
    assert [r.kind for r in inj.injected()] == ["inject:msg-drop"] * 2


def test_delays_apply_everywhere():
    m = machine()
    inj = FaultInjector.attach(
        m, FaultPlan(seed=4, msg_delay_rate=1.0, msg_delay_seconds=0.1))
    # Delays need no registration (a late control message is safe).
    assert inj.message_decision(Msg(0, 1, tag=999)) == (False, 0.1)
    assert inj.injected()[0].kind == "inject:msg-delay"


# -- silent corruption hooks ------------------------------------------------

def test_corrupt_served_flips_one_bit_per_decided_block():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, corrupt_ost_rate=1.0))
    f = m.fs.create_procedural_file("c.bin", 256, dtype=np.float64,
                                    stripe_size=512)
    pristine = bytes(f.source.read(0, 1024))  # blocks 0 and 1
    served = inj.corrupt_served(f, 0, pristine)
    # Rate 1.0: both covered blocks flip exactly one bit each.
    diff = sum((a ^ b).bit_count() for a, b in zip(served, pristine))
    assert diff == 2
    assert [r.kind for r in inj.injected()] == ["inject:ost-corrupt"] * 2
    # The source stays pristine — that is what makes re-reads repair.
    assert bytes(f.source.read(0, 1024)) == pristine
    # The occurrence counter advanced: read #1 draws fresh decisions.
    assert inj._block_occurrence[("c.bin", 0)] == 1
    inj.corrupt_served(f, 0, pristine)
    assert "read #1" in inj.injected()[-1].detail


def test_corrupt_message_only_inside_droppable_ranges():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, corrupt_msg_rate=1.0))
    payload = np.ones(8, dtype=np.float64)
    msg = Msg(0, 1, tag=50, data=(("w", 0), payload))
    # Control plane (no registered range): delivered untouched.
    assert inj.corrupt_message(msg) is msg.data
    assert inj.records == []
    inj.allow_drops(50, 60)
    corrupted = inj.corrupt_message(msg)
    assert corrupted is not msg.data
    assert not np.array_equal(corrupted[1], payload)
    np.testing.assert_array_equal(payload, np.ones(8))  # copy-on-corrupt
    (rec,) = inj.injected()
    assert rec.kind == "inject:msg-corrupt"
    assert "tag 50" in rec.detail


def test_corrupt_message_without_data_leaves_records_nothing():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, corrupt_msg_rate=1.0))
    inj.allow_drops(50, 60)
    key_only = Msg(0, 1, tag=50, data=("window", 3))
    assert inj.corrupt_message(key_only) is key_only.data
    assert inj.records == []


def test_detected_filter():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4))
    inj.record("inject:ost-corrupt", "ost0", "x")
    inj.record("detect:ost-corrupt", "ost0", "y")
    inj.record("recover:retry", "rank0", "z")
    assert [r.kind for r in inj.detected()] == ["detect:ost-corrupt"]


# -- deadlock diagnostics ---------------------------------------------------

def test_describe_blocked_without_faults():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4))
    (line,) = inj.describe_blocked()
    assert "no fault injected" in line


def test_describe_blocked_names_last_fault():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, msg_drop_rate=1.0))
    inj.allow_drops(5, 6)
    inj.message_decision(Msg(2, 3, tag=5))
    (line,) = inj.describe_blocked()
    assert "1 fault(s) injected" in line
    assert "inject:msg-drop" in line
    assert "2->3" in line


def test_deadlock_report_names_injected_fault():
    """A hang that follows an injected fault must say so: the
    DeadlockError report carries the injector's describe_blocked()
    lines, so a fault-induced deadlock is distinguishable from a
    protocol bug."""
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4, msg_drop_rate=1.0))
    inj.allow_drops(7, 8)

    def main(ctx):
        if ctx.rank == 1:
            yield from ctx.comm.send(b"payload", 0, tag=7)  # dropped
            return None
        data = yield from ctx.comm.recv(1, tag=7)  # waits forever
        return data

    with pytest.raises(DeadlockError) as err:
        mpi_run(m, 2, main)
    msg = str(err.value)
    assert "inject:msg-drop" in msg
    assert "1->0" in msg
    assert "blocked in recv(source=1, tag=7)" in msg


# -- trace export -----------------------------------------------------------

def test_fault_records_export_as_instant_events():
    m = machine()
    inj = FaultInjector.attach(m, FaultPlan(seed=4))
    inj.record("inject:agg-crash", "rank3", "fail-stop before window 1")
    inj.record("recover:failover", "job", "1 window adopted")
    doc = build_trace(faults=inj)
    instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
    assert len(instants) == 2
    crash, failover = instants
    assert crash["pid"] == 2 and crash["tid"] == 3
    assert crash["args"]["location"] == "rank3"
    assert crash["cname"] != failover["cname"]  # inject vs recover palette
    names = [e for e in doc["traceEvents"]
             if e.get("ph") == "M" and e.get("pid") == 2]
    assert any(e["args"].get("name", "").endswith("faults") for e in names)
