"""Figure 14 — resilience of collective computing under injected faults.

Beyond the paper: its evaluation ran on a healthy Hopper, and the
conclusion names fault tolerance as the open question.  This experiment
answers it in simulation.  A seeded :class:`~repro.faults.FaultPlan`
injects slow/failed OST reads, straggling/crashed aggregators and
dropped/delayed shuffle messages at a swept rate; both pipelines run
their resilient variants (:mod:`repro.faults.resilient`) and must
finish with the *same numbers* as the fault-free run — recovery is
allowed to cost time and wire bytes, never correctness.

Series, per injected fault rate: completion time and interconnect
bytes, for collective computing vs the traditional two-phase baseline.
Expected shape: both degrade as the rate grows; CC keeps its wire-byte
lead because recovery re-ships *partial results* where the baseline
re-ships raw window data, while completion times converge at high rates
where suspicion timeouts dominate both pipelines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import KiB, MiB
from ..core import SUM_OP
from ..faults import FaultPlan, RecoveryPolicy, RetryPolicy
from ..pfs import default_field
from ..workloads.climate import interleaved_workload
from .common import (ExperimentResult, hopper_platform, run_objectio_job,
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

#: Recovery policy of every job (the settings report its knobs).
POLICY = RecoveryPolicy(retry=RetryPolicy(max_retries=6))

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


def run_point(nprocs: int, per_rank_kib: int, rate: float, seed: int,
              block: bool) -> Tuple[float, int, int, int, Any]:
    """One resilient job (one pipeline at one fault rate); returns
    (completion time, wire bytes, injected count, recovery count,
    root's global result) for the merge phase."""
    out = run_objectio_job(
        hopper_platform(max(1, -(-nprocs // 24))),
        interleaved_workload(nprocs, per_rank_bytes=per_rank_kib * KiB),
        SUM_OP, block=block, field_func=default_field, policy=POLICY,
        faults=_fault_plan(rate, seed))
    return (out.time, out.mpi_bytes, out.injected, out.recovered,
            out.global_result)


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
            ("receive timeout (s)", POLICY.read_timeout),
            ("min aggregator fraction", POLICY.min_aggregator_fraction),
            ("retry budget", POLICY.retry.max_retries),
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
