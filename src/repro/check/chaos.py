"""Chaos campaign: seeded corruption sweeps over the resilient stack.

``python -m repro.check chaos N`` runs ``N`` simulated jobs, sweeping
seeds x corruption rates x scenarios (collective computing in both
reduce modes, the raw resilient two-phase read, and a
degraded-to-independent configuration), each under a *mixed* fault plan:
silent OST and wire corruption at the swept rate plus message drops,
transient EIOs and aggregator crashes.  Every run must satisfy the
end-to-end integrity contract:

* **bit-identical results** — the faulted run's numbers (and, for the
  raw read, its bytes) equal the fault-free reference exactly;
* **no silent corruption** — every ``inject:*-corrupt`` record is
  matched by a ``detect:*-corrupt`` record (nothing slips through) and
  no corruption survives to the reduce-time provenance check;
* **repair happened** — detections are accompanied by ``recover:*``
  records (retry, failover round, or degraded self-serve);
* **consistent ledger** — the injector's record timeline is
  chronological and every kind is namespaced.

The plans deliberately inject **no** delays or stragglers: a message
that is merely late can arrive after its receive window was abandoned,
leaving an injected corruption no verifier ever examined — the sweep
asserts *strict* inject/detect matching, which needs every delivered
payload to be examined.  Everything is seeded, so a failing
``seed=... scenario=...`` line reproduces exactly.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..flags import override
from ..obs import metrics

#: Ranks per chaos job (small on purpose: the campaign is a CI gate).
NPROCS = 4

#: Corruption rates swept (applied to both the OST and wire paths).
CORRUPT_RATES = (0.02, 0.05, 0.10)


def _plan_fields(rate: float, agg_crash_rate: float) -> Dict[str, float]:
    """The mixed fault plan of one run: corruption at the swept rate,
    plus fail-stop noise (drops, EIOs, crashes) so detection and repair
    run *concurrently* with the fail-stop recovery machinery.  No
    delays/stragglers — see the module docstring."""
    return dict(
        corrupt_ost_rate=rate,
        corrupt_msg_rate=rate,
        msg_drop_rate=rate / 2,
        ost_fail_rate=rate / 4,
        agg_crash_rate=agg_crash_rate,
    )


def _scenarios():
    """``(name, body factory, agg crash rate, policy)`` per scenario.

    Imported lazily so ``python -m repro.check lint`` never pays the
    simulator import.
    """
    from ..core import ObjectIO, SUM_OP
    from ..dataspace import DatasetSpec, block_partition, full_selection
    from ..faults import RecoveryPolicy, RetryPolicy
    from ..faults.resilient import (resilient_collective_read,
                                    resilient_object_get)
    from ..io import AccessRequest, CollectiveHints

    spec = DatasetSpec((8, 16, 16), np.float64, name="chaos")
    parts = block_partition(full_selection(spec), NPROCS, axis=1)
    hints = CollectiveHints(cb_buffer_size=2048)
    retry = RetryPolicy(max_retries=6)
    policy = RecoveryPolicy(read_timeout=0.1, retry=retry)
    degraded_policy = RecoveryPolicy(read_timeout=0.1, retry=retry,
                                     min_aggregator_fraction=0.9,
                                     max_rounds=2)

    def cc_body(reduce_mode):
        def body(ctx, file, pol):
            oio = ObjectIO(spec, parts[ctx.rank], SUM_OP, hints=hints,
                           reduce_mode=reduce_mode)
            res = yield from resilient_object_get(ctx, file, oio, pol)
            per_rank = (tuple(sorted(res.per_rank.items()))
                        if res.per_rank else None)
            return res.global_result, res.local, per_rank
        return body

    def raw_body(ctx, file, pol):
        request = AccessRequest.from_subarray(spec, parts[ctx.rank])
        buf = yield from resilient_collective_read(ctx, file, request,
                                                   hints, pol)
        return bytes(buf)

    return spec, (
        ("cc-all-to-one", cc_body("all_to_one"), 0.15, policy),
        ("cc-all-to-all", cc_body("all_to_all"), 0.15, policy),
        ("two-phase", raw_body, 0.15, policy),
        ("degraded", cc_body("all_to_all"), 0.8, degraded_policy),
    )


def _run_job(spec, body: Callable, policy, plan=None,
             with_integrity: bool = False) -> Tuple[list, object, object]:
    """One simulated job; returns ``(results, injector, integrity)``."""
    from ..cluster import Machine
    from ..config import small_test_machine
    from ..faults import FaultInjector
    from ..integrity import IntegrityManager
    from ..mpi import mpi_run
    from ..sim import Kernel

    machine = Machine(Kernel(), small_test_machine(nodes=2,
                                                   cores_per_node=4,
                                                   n_osts=3,
                                                   stripe_size=512))
    file = machine.fs.create_procedural_file("chaos.nc", spec.n_elements,
                                             dtype=spec.dtype,
                                             stripe_size=512)
    integ = IntegrityManager.attach(machine) if with_integrity else None
    inj = (FaultInjector.attach(machine, plan)
           if plan is not None else None)
    results = mpi_run(machine, NPROCS, lambda ctx: body(ctx, file, policy))
    return results, inj, integ


def _assert_contract(reference: list, results: list, inj, integ) -> None:
    """The per-run integrity contract (see module docstring)."""
    if results != reference:
        diverged = [r for r, (a, b) in enumerate(zip(results, reference))
                    if a != b]
        raise AssertionError(
            f"results diverge from the fault-free reference on "
            f"rank(s) {diverged}")
    injected = {"ost": 0, "msg": 0}
    for record in inj.records:
        if record.kind == "inject:ost-corrupt":
            injected["ost"] += 1
        elif record.kind == "inject:msg-corrupt":
            injected["msg"] += 1
    for kind in ("ost", "msg"):
        if injected[kind] != integ.detections[kind]:
            raise AssertionError(
                f"{kind} corruption mismatch: {injected[kind]} injected "
                f"but {integ.detections[kind]} detected")
    if integ.detections["partial"]:
        raise AssertionError(
            f"{integ.detections['partial']} corruption(s) reached the "
            f"reduce-time provenance check (the wire check should have "
            f"repaired them)")
    if integ.detected() and not inj.recovered():
        raise AssertionError(
            f"{integ.detected()} detection(s) but no recover:* record — "
            f"repair was skipped")
    last_time = 0.0
    for record in inj.records:
        if record.time < last_time:
            raise AssertionError(
                f"ledger out of order at {record.format()}")
        last_time = record.time
        if not record.kind.startswith(("inject:", "detect:", "recover:")):
            raise AssertionError(
                f"unnamespaced ledger kind {record.kind!r}")


#: Per-process memo of fault-free reference results, one per scenario.
#: Serial campaigns fill it once; each pool worker fills its own copy
#: lazily (at most once per scenario per worker process).  References
#: never cross the process boundary — only the per-job verdict does.
_REFERENCES: Dict[str, list] = {}  # repro: allow[pool-global] — memo by design: each worker fills its own copy; only verdicts cross the pool


def run_point(index: int, base_seed: int) -> Tuple[str, object, int, int]:
    """One chaos job (campaign slot ``index``); returns
    ``(label, failure text or None, injected count, detected count)``.

    The job → (scenario, rate, seed) mapping is a pure function of
    ``index``, so a campaign is an embarrassingly parallel sweep over
    ``range(n)`` and any slot replays exactly by itself.
    """
    from ..faults import FaultPlan

    spec, scenarios = _scenarios()
    name, body, agg_crash_rate, policy = scenarios[index % len(scenarios)]
    rate = CORRUPT_RATES[(index // len(scenarios)) % len(CORRUPT_RATES)]
    seed = base_seed + index
    label = f"seed={seed} scenario={name} rate={rate:g}"
    try:
        with override(check=True):
            if name not in _REFERENCES:
                # Suppress the reference job's metrics: whether it runs
                # here depends on per-process memo state, so letting it
                # record would make a point's snapshot depend on which
                # worker (or how many) ran the campaign.
                with metrics.suppressed():
                    _REFERENCES[name], _, _ = _run_job(spec, body, policy)
            plan = FaultPlan(seed=seed,
                             **_plan_fields(rate, agg_crash_rate))
            results, inj, integ = _run_job(spec, body, policy, plan,
                                           with_integrity=True)
            _assert_contract(_REFERENCES[name], results, inj, integ)
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        return label, f"{type(exc).__name__}: {exc}", 0, 0
    return label, None, len(inj.injected()), integ.detected()


def run_campaign(n: int, base_seed: int = 0, quiet: bool = False,
                 jobs: int = 1, journal=None, resume_hint: str = "") -> int:
    """Run ``n`` chaos jobs; returns a process exit status (0 clean).

    Job ``i`` uses scenario ``i mod 4``, corruption rate
    ``(i div 4) mod 3`` and seed ``base_seed + i`` — every (scenario,
    rate) pair is exercised once per 12 jobs, under a fresh seed each
    cycle.  Failures name the seed, scenario and rate so any single job
    can be replayed.

    ``jobs`` fans the campaign out over worker processes (0 = one per
    core); verdicts are collected and printed in job order, so the
    output is byte-identical to a serial run.

    ``journal`` (an unbounded :class:`~repro.parallel.PointCache` at
    :func:`~repro.parallel.journal_root`) makes the campaign
    crash-resumable: every completed job is stored durably, a rerun
    over the same journal replays stored jobs instead of re-simulating
    them, and the verdict stream stays byte-identical either way.
    ``resume_hint`` is the command a SIGINT/SIGTERM report names for
    resuming.
    """
    from ..parallel import SweepPoint, run_sweep

    points = [SweepPoint.make("repro.check.chaos:run_point",
                              label=f"chaos#{i}", index=i,
                              base_seed=base_seed)
              for i in range(n)]
    verdicts = run_sweep(points, jobs=jobs, journal=journal,
                         resume_hint=resume_hint)
    failures: List[str] = []
    for label, failure, injected, detected in verdicts:
        if failure is not None:
            failures.append(f"{label}: {failure}")
        elif not quiet:
            print(f"repro.check chaos: {label} ok "
                  f"({injected} injected, {detected} detected)")
    if failures:
        for failure in failures:
            print(f"repro.check chaos FAILED: {failure}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"repro.check chaos: {n} run(s), all clean")
    return 0
