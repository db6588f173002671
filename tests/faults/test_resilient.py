"""Resilient protocols: fault-free equivalence, failover, degradation,
message loss, and the same-seed determinism contract."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import ObjectIO, SUM_OP, object_get
from repro.dataspace import DatasetSpec, Subarray, block_partition
from repro.errors import CollectiveComputingError, IOLayerError, RecoveryError
from repro.faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                          RetryPolicy, resilient_collective_read,
                          resilient_object_get)
from repro.io import AccessRequest, CollectiveHints
from repro.io.twophase import collective_read
from repro.mpi import mpi_run
from repro.sim import Kernel

DSPEC = DatasetSpec((16, 8, 16), np.float64, name="T")
GSUB = Subarray((0, 0, 0), (16, 8, 16))
HINTS = CollectiveHints(cb_buffer_size=1024)
NPROCS = 12
AGGREGATORS = (0, 4, 8)  # one per node on the 3-node test machine
PARTS = block_partition(GSUB, NPROCS, axis=1)


def field(idx):
    return np.sin(idx.astype(np.float64) * 0.01) + idx * 1e-4


def build():
    k = Kernel()
    m = Machine(k, small_test_machine(nodes=3, cores_per_node=4,
                                      n_osts=3, stripe_size=512))
    f = m.fs.create_procedural_file("T.nc", DSPEC.n_elements,
                                    dtype=np.float64, func=field,
                                    stripe_size=512)
    return k, m, f


def run_plain(**oio_kw):
    k, m, f = build()

    def main(ctx):
        oio = ObjectIO(DSPEC, PARTS[ctx.rank], SUM_OP, hints=HINTS,
                       **oio_kw)
        res = yield from object_get(ctx, f, oio)
        return res

    return mpi_run(m, NPROCS, main)


def run_resilient(plan=None, policy=None, **oio_kw):
    k, m, f = build()
    inj = FaultInjector.attach(m, plan) if plan is not None else None

    def main(ctx):
        oio = ObjectIO(DSPEC, PARTS[ctx.rank], SUM_OP, hints=HINTS,
                       **oio_kw)
        res = yield from resilient_object_get(ctx, f, oio, policy)
        return res

    results = mpi_run(m, NPROCS, main)
    return results, inj, k.now


def crash_seed(rate=0.35, n_crashed=1):
    """First seed whose round-0 schedule crashes exactly ``n_crashed``
    of the test machine's aggregators — a pure plan computation, so the
    scan itself is deterministic."""
    for seed in range(200):
        plan = FaultPlan(seed=seed, agg_crash_rate=rate)
        crashed = [r for r in AGGREGATORS
                   if plan.aggregator_crash(r, 1, 0) is not None]
        if len(crashed) == n_crashed:
            return seed
    raise AssertionError("no such seed in range")  # pragma: no cover


def assert_same_results(resilient, plain):
    for a, b in zip(resilient, plain):
        assert a.global_result == pytest.approx(b.global_result)
        if b.local is None:
            assert a.local is None
        else:
            assert a.local == pytest.approx(b.local)


# -- fault-free equivalence -------------------------------------------------

def test_fault_free_matches_plain_all_to_all():
    res, inj, _ = run_resilient()
    assert_same_results(res, run_plain())


def test_fault_free_matches_plain_all_to_one():
    res, inj, _ = run_resilient(reduce_mode="all_to_one", root=2)
    plain = run_plain(reduce_mode="all_to_one", root=2)
    assert_same_results(res, plain)
    assert res[2].per_rank.keys() == plain[2].per_rank.keys()
    for r in plain[2].per_rank:
        assert res[2].per_rank[r] == pytest.approx(plain[2].per_rank[r])


def test_fault_free_matches_plain_traditional():
    res, inj, _ = run_resilient(block=True)
    assert_same_results(res, run_plain(block=True))


def test_raw_read_matches_collective_read():
    def plain_main(ctx):
        req = AccessRequest.from_subarray(DSPEC, PARTS[ctx.rank])
        buf = yield from collective_read(ctx, f, req, HINTS)
        return bytes(buf)

    def resilient_main(ctx):
        req = AccessRequest.from_subarray(DSPEC, PARTS[ctx.rank])
        buf = yield from resilient_collective_read(ctx, f, req, HINTS)
        return bytes(buf)

    k, m, f = build()
    expected = mpi_run(m, NPROCS, plain_main)
    k, m, f = build()
    assert mpi_run(m, NPROCS, resilient_main) == expected


# -- hints the round-based exchange cannot honour ---------------------------

TWO_LEVEL = CollectiveHints(cb_buffer_size=1024, two_level=True)


def test_raw_read_refuses_two_level():
    def main(ctx):
        req = AccessRequest.from_subarray(DSPEC, PARTS[ctx.rank])
        yield from resilient_collective_read(ctx, f, req, TWO_LEVEL)

    k, m, f = build()
    with pytest.raises(IOLayerError, match="resilient_collective_read .*"
                                           "two_level=True"):
        mpi_run(m, NPROCS, main)


@pytest.mark.parametrize("block", [False, True])
def test_object_get_refuses_two_level(block):
    def main(ctx):
        oio = ObjectIO(DSPEC, PARTS[ctx.rank], SUM_OP, hints=TWO_LEVEL,
                       block=block)
        yield from resilient_object_get(ctx, f, oio)

    k, m, f = build()
    with pytest.raises(IOLayerError, match="two_level=True"):
        mpi_run(m, NPROCS, main)


def test_object_get_refuses_local_mode():
    """Local analysis-in-I/O (``mode="independent", block=False``) has
    no resilient twin: the front door names the combination instead of
    silently running the read-everything-then-compute protocol."""
    with pytest.raises(CollectiveComputingError,
                       match="mode='independent', block=False"):
        run_resilient(mode="independent")


# -- independent reads under OST faults -------------------------------------

def test_independent_path_reads_under_the_callers_retry_policy():
    """No figure runs the resilient independent path: with only OST
    failures injected it must return the fault-free answer through
    logged retries, and the caller's ``RetryPolicy`` must reach every
    read — with no retries allowed, the first EIO is fatal."""
    plan = FaultPlan(seed=0, ost_fail_rate=0.2)
    res, inj, _ = run_resilient(plan=plan, mode="independent", block=True)
    plain = run_plain(mode="independent", block=True)
    assert ([r.global_result for r in res]
            == [r.global_result for r in plain])
    assert {r.kind for r in inj.injected()} == {"inject:ost-fail"}
    assert any(r.kind == "recover:retry" for r in inj.recovered())
    no_retries = RecoveryPolicy(retry=RetryPolicy(max_retries=0))
    with pytest.raises(RecoveryError, match="after 0 retries"):
        run_resilient(plan=plan, policy=no_retries, mode="independent",
                      block=True)


# -- failover ---------------------------------------------------------------

def test_failover_during_shuffle_preserves_results():
    """One aggregator fail-stops mid-schedule; survivors adopt its
    windows and every number still matches the fault-free run."""
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)
    res, inj, _ = run_resilient(plan=plan)
    kinds = {r.kind for r in inj.records}
    assert "inject:agg-crash" in kinds
    assert "recover:suspect" in kinds
    assert "recover:failover" in kinds
    assert_same_results(res, run_plain())


def test_failover_raw_read_preserves_bytes():
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)

    def resilient_main(ctx):
        req = AccessRequest.from_subarray(DSPEC, PARTS[ctx.rank])
        buf = yield from resilient_collective_read(ctx, f, req, HINTS)
        return bytes(buf)

    def plain_main(ctx):
        req = AccessRequest.from_subarray(DSPEC, PARTS[ctx.rank])
        buf = yield from collective_read(ctx, f, req, HINTS)
        return bytes(buf)

    k, m, f = build()
    expected = mpi_run(m, NPROCS, plain_main)
    k, m, f = build()
    FaultInjector.attach(m, plan)
    assert mpi_run(m, NPROCS, resilient_main) == expected


def test_failover_all_to_one_preserves_results():
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)
    res, inj, _ = run_resilient(plan=plan, reduce_mode="all_to_one")
    assert "inject:agg-crash" in {r.kind for r in inj.records}
    assert_same_results(res, run_plain(reduce_mode="all_to_one"))


# -- degradation ------------------------------------------------------------

def test_degradation_when_threshold_crossed():
    """min_aggregator_fraction=1.0: losing a single aggregator crosses
    the threshold, so recovery skips failover and degrades."""
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)
    policy = RecoveryPolicy(min_aggregator_fraction=1.0, read_timeout=0.1)
    res, inj, _ = run_resilient(plan=plan, policy=policy)
    kinds = {r.kind for r in inj.records}
    assert "recover:degraded" in kinds
    assert "recover:failover" not in kinds
    assert_same_results(res, run_plain())


def test_threshold_exactly_met_uses_failover_not_degradation():
    """The same single crash under fraction 0.5 (required = 2 of 3)
    leaves the survivor count exactly at the ceiling — collective
    serving must continue."""
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)
    policy = RecoveryPolicy(min_aggregator_fraction=0.5, read_timeout=0.1)
    res, inj, _ = run_resilient(plan=plan, policy=policy)
    assert "recover:failover" in {r.kind for r in inj.records}
    assert_same_results(res, run_plain())


def test_all_aggregators_crash_degrades_and_recovers():
    plan = FaultPlan(seed=13, agg_crash_rate=1.0)
    policy = RecoveryPolicy(read_timeout=0.1)
    res, inj, _ = run_resilient(plan=plan, policy=policy)
    assert "recover:degraded" in {r.kind for r in inj.records}
    assert_same_results(res, run_plain())


# -- message faults ---------------------------------------------------------

def test_total_message_loss_still_converges():
    """Every data-plane message dropped, every round: the round budget
    runs out and the degraded tail still produces the right numbers
    (the agreement rides the reliable control plane)."""
    plan = FaultPlan(seed=5, msg_drop_rate=1.0)
    policy = RecoveryPolicy(read_timeout=0.05, max_rounds=2)
    res, inj, _ = run_resilient(plan=plan, policy=policy)
    kinds = {r.kind for r in inj.records}
    assert "inject:msg-drop" in kinds
    assert "recover:degraded" in kinds
    assert_same_results(res, run_plain())


def test_small_delays_and_straggles_are_absorbed():
    """Stragglers and delays below the receive timeout need no recovery
    at all — injected, absorbed, same numbers."""
    plan = FaultPlan(seed=5, agg_straggle_rate=1.0,
                     agg_straggle_seconds=0.01, msg_delay_rate=1.0,
                     msg_delay_seconds=0.005)
    res, inj, healthy_now = run_resilient(plan=plan)
    kinds = {r.kind for r in inj.records}
    assert "inject:agg-straggle" in kinds
    assert "inject:msg-delay" in kinds
    assert not inj.recovered()
    assert_same_results(res, run_plain())


def test_recovery_costs_time_not_correctness():
    _, _, t_healthy = run_resilient()
    plan = FaultPlan(seed=crash_seed(), agg_crash_rate=0.35)
    _, _, t_faulted = run_resilient(plan=plan)
    assert t_faulted > t_healthy


@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("faulted", [False, True])
def test_clock_stops_at_the_last_rank_finish(block, faulted):
    """A timed receive that wins withdraws its timer, so the kernel's
    clock ends at the latest per-rank finish, not one ``read_timeout``
    later."""
    k, m, f = build()
    if faulted:
        FaultInjector.attach(m, FaultPlan(seed=crash_seed(),
                                          agg_crash_rate=0.35))
    finish = []

    def main(ctx):
        oio = ObjectIO(DSPEC, PARTS[ctx.rank], SUM_OP, hints=HINTS,
                       block=block)
        res = yield from resilient_object_get(ctx, f, oio)
        finish.append(ctx.kernel.now)
        return res

    mpi_run(m, NPROCS, main)
    # Ranks return in clock order: the last entry is the latest finish.
    assert len(finish) == NPROCS
    assert k.now == finish[-1]


# -- determinism ------------------------------------------------------------

def test_same_seed_same_schedule_same_results():
    plan = FaultPlan.uniform(seed=42, rate=0.3, ost_fail_rate=0.02,
                             agg_straggle_seconds=0.2)
    policy = RecoveryPolicy(read_timeout=0.1,
                            retry=RetryPolicy(max_retries=6))
    runs = [run_resilient(plan=plan, policy=policy) for _ in range(2)]
    (res_a, inj_a, now_a), (res_b, inj_b, now_b) = runs
    assert now_a == now_b
    assert ([(r.time, r.kind, r.location, r.detail) for r in inj_a.records]
            == [(r.time, r.kind, r.location, r.detail)
                for r in inj_b.records])
    for a, b in zip(res_a, res_b):
        assert a.global_result == b.global_result
        assert a.local == b.local
