"""Figure 14 — resilience of collective computing under injected faults.

Beyond the paper: its evaluation ran on a healthy Hopper, and the
conclusion names fault tolerance as the open question.  This experiment
answers it in simulation.  A seeded :class:`~repro.faults.FaultPlan`
injects slow/failed OST reads, straggling/crashed aggregators and
dropped/delayed shuffle messages at a swept rate; both pipelines run
their resilient variants (:mod:`repro.faults.resilient`) and must
finish with the *same numbers* as the fault-free run — recovery is
allowed to cost time and wire bytes, never correctness.

Series, per injected fault rate: completion time (the latest per-rank
finish, since cancelled receive timers keep the event queue warm past
the job) and interconnect bytes, for collective computing vs the
traditional two-phase baseline.  Expected shape: both degrade as the
rate grows; CC keeps its wire-byte lead because recovery re-ships
*partial results* where the baseline re-ships raw window data, while
completion times converge at high rates where suspicion timeouts
dominate both pipelines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import Machine
from ..config import KiB, MiB
from ..core import ObjectIO, SUM_OP
from ..faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                      RetryPolicy)
from ..faults.resilient import resilient_object_get
from ..mpi import mpi_run
from ..sim import Kernel
from ..workloads.climate import Workload, interleaved_workload
from .common import (DEFAULT_HINTS, ExperimentResult, hopper_platform,
                     sweep)

#: Injected fault rates swept (0.0 first: the bit-identity reference).
FAULT_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)
#: Fault-plan seed (the whole schedule is a pure function of it).
SEED = 2015
#: Injected aggregator straggle must exceed the receivers' suspicion
#: timeout, or it would model jitter, not a straggler.
STRAGGLE_SECONDS = 1.0

#: ``--quick`` configuration.
QUICK_KWARGS: Dict[str, Any] = dict(nprocs=24, per_rank_kib=128,
                                    fault_rates=(0.0, 0.1, 0.4))

_FN = "repro.experiments.fig14_faults:run_point"


def _fault_plan(rate: float, seed: int) -> Optional[FaultPlan]:
    if rate == 0.0:
        return None
    # Transient EIOs are far rarer than stragglers or lost messages on
    # a real machine; injecting them at the full swept rate would make
    # even the independent-I/O last resort fail its whole retry budget.
    return FaultPlan.uniform(seed, rate,
                             ost_fail_rate=rate / 8.0,
                             agg_straggle_seconds=STRAGGLE_SECONDS)


def _run_resilient(platform, workload: Workload, op, *, block: bool,
                   plan: Optional[FaultPlan],
                   policy: RecoveryPolicy) -> Tuple[float, int, int, int, Any]:
    """One resilient job: returns (completion time, wire bytes,
    injected count, recovery count, root's global result)."""
    kernel = Kernel()
    machine = Machine(kernel, platform)
    nprocs = workload.nprocs
    machine.validate_job(nprocs)
    file = machine.fs.create_procedural_file(
        "dataset.nc", workload.dspec.n_elements,
        dtype=workload.dspec.dtype, stripe_size=1 * MiB, stripe_count=-1)
    if plan is not None:
        FaultInjector.attach(machine, plan)
    finish = [0.0] * nprocs

    def main(ctx):
        oio = ObjectIO(workload.dspec, workload.parts[ctx.rank], op,
                       block=block, hints=DEFAULT_HINTS)
        result = yield from resilient_object_get(ctx, file, oio,
                                                 policy=policy)
        # Completion = the rank finishing, not the queue draining:
        # cancelled receives leave their timeout events pending.
        finish[ctx.rank] = ctx.kernel.now
        return result

    results = mpi_run(machine, nprocs, main)
    wire = machine.network.inter_node_bytes + machine.network.intra_node_bytes
    injected = recovered = 0
    if machine.faults is not None:
        injected = len(machine.faults.injected())
        recovered = len(machine.faults.recovered())
        FaultInjector.detach(machine)
    return max(finish), wire, injected, recovered, results[0].global_result


def run_point(nprocs: int, per_rank_kib: int, rate: float, seed: int,
              block: bool) -> Tuple[float, int, int, int, Any]:
    """One resilient job (one pipeline at one fault rate); returns the
    raw ``_run_resilient`` tuple for the merge phase."""
    platform = hopper_platform(max(1, -(-nprocs // 24)))
    workload = interleaved_workload(nprocs,
                                    per_rank_bytes=per_rank_kib * KiB)
    policy = RecoveryPolicy(retry=RetryPolicy(max_retries=6))
    plan = _fault_plan(rate, seed)
    return _run_resilient(platform, workload, SUM_OP, block=block,
                          plan=plan, policy=policy)


def points(nprocs: int, per_rank_kib: int, fault_rates: Sequence[float],
           seed: int) -> List[Dict[str, Any]]:
    """The sweep: per fault rate, one CC job and one baseline job —
    every job builds its own kernel, so all are independent."""
    pts: List[Dict[str, Any]] = []
    for rate in fault_rates:
        for block in (False, True):
            pts.append(dict(nprocs=int(nprocs),
                            per_rank_kib=int(per_rank_kib),
                            rate=float(rate), seed=int(seed),
                            block=block))
    return pts


def run(nprocs: int = 48, per_rank_kib: int = 512,
        fault_rates: Sequence[float] = FAULT_RATES,
        seed: int = SEED, *,
        jobs: int = 1, cache: Any = None,
        journal: Any = None) -> ExperimentResult:
    """Regenerate Figure 14 (completion time and wire bytes vs injected
    fault rate, resilient CC vs resilient two-phase baseline)."""
    policy = RecoveryPolicy(retry=RetryPolicy(max_retries=6))
    payloads = sweep(_FN, points(nprocs, per_rank_kib, fault_rates, seed),
                     jobs=jobs, cache=cache, journal=journal)
    rows: List[Tuple] = []
    reference: dict = {}
    for i, rate in enumerate(fault_rates):
        cc_t, cc_b, cc_inj, cc_rec, cc_res = payloads[2 * i]
        mpi_t, mpi_b, mpi_inj, mpi_rec, mpi_res = payloads[2 * i + 1]
        reference.setdefault("cc", cc_res)
        reference.setdefault("mpi", mpi_res)
        ok = (cc_res == reference["cc"] and mpi_res == reference["mpi"])
        rows.append((rate, round(mpi_t, 4), round(cc_t, 4),
                     round(mpi_b / MiB, 3), round(cc_b / MiB, 3),
                     mpi_inj + cc_inj, mpi_rec + cc_rec, ok))
    return ExperimentResult(
        experiment_id="fig14",
        title="Fault injection: resilient CC vs resilient two-phase",
        headers=["fault_rate", "mpi_s", "cc_s", "mpi_wire_mib",
                 "cc_wire_mib", "injected", "recoveries", "result_ok"],
        rows=rows,
        plot_spec=("fault_rate", ("mpi_s", "cc_s")),
        settings=[
            ("processes", nprocs),
            ("per-rank request (KiB)", per_rank_kib),
            ("fault-plan seed", seed),
            ("straggle (s)", STRAGGLE_SECONDS),
            ("receive timeout (s)", policy.read_timeout),
            ("min aggregator fraction", policy.min_aggregator_fraction),
            ("retry budget", policy.retry.max_retries),
        ],
        paper_expectation=(
            "not in the paper (its conclusion leaves fault tolerance "
            "open): both pipelines slow down as the injected rate grows, "
            "every row reduces to the fault-free numbers (result_ok), "
            "and CC keeps its wire-byte lead — its recovery re-ships "
            "compact partial results where the baseline re-ships raw "
            "window bytes; completion times converge at high rates, "
            "where suspicion timeouts dominate both pipelines"
        ),
    )
