"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not paper figures; they quantify the individual mechanisms:

* all-to-one vs all-to-all result reduction (paper §III-C),
* pipelined vs blocking CC (how much of the win is overlap vs shuffle
  volume),
* aggregator count per node,
* collective buffer size vs CC job time,
* CC vs the NB-CIO related work (overlap on *independent* data only).
"""

from __future__ import annotations

import numpy as np

from repro.config import KiB, MiB
from repro.core import SUM_OP
from repro.cluster import Machine
from repro.faults import FaultPlan, RecoveryPolicy
from repro.io import (AccessRequest, CollectiveHints, icollective_read,
                      wait_and_unpack)
from repro.mpi import mpi_run
from repro.sim import Kernel
from repro.workloads.climate import interleaved_workload
from repro.experiments.common import hopper_platform, run_objectio_job

from conftest import run_once

NPROCS = 72
WORKLOAD = interleaved_workload(NPROCS, per_rank_bytes=1 * MiB)
PLATFORM = hopper_platform(3, n_osts=40)
OP = SUM_OP.with_cost(4.0)


def test_ablation_reduce_modes(benchmark):
    """all-to-one concentrates construction on the root; all-to-all
    spreads it but sends more messages."""

    def run():
        out = {}
        for mode in ("all_to_all", "all_to_one"):
            res = run_objectio_job(PLATFORM, WORKLOAD, OP, block=False,
                                   reduce_mode=mode)
            out[mode] = res.time
        return out

    out = run_once(benchmark, run)
    benchmark.extra_info.update({m: f"{t:.4f}s" for m, t in out.items()})
    # Both modes complete and stay within 2x of each other.
    t_a2a, t_a21 = out["all_to_all"], out["all_to_one"]
    assert 0.5 < t_a2a / t_a21 < 2.0
    print(f"\nall_to_all: {t_a2a:.4f}s  all_to_one: {t_a21:.4f}s")


def test_ablation_cc_pipeline_vs_blocking(benchmark):
    """How much of CC's win is the finer-grained overlap (Fig. 7)
    versus the shuffle-volume reduction alone."""

    def run():
        pipelined = run_objectio_job(
            PLATFORM, WORKLOAD, OP, block=False,
            hints=CollectiveHints(cb_buffer_size=4 * MiB, pipeline=True))
        blocking = run_objectio_job(
            PLATFORM, WORKLOAD, OP, block=False,
            hints=CollectiveHints(cb_buffer_size=4 * MiB, pipeline=False))
        baseline = run_objectio_job(PLATFORM, WORKLOAD, OP, block=True)
        return pipelined.time, blocking.time, baseline.time

    t_pipe, t_block, t_base = run_once(benchmark, run)
    benchmark.extra_info["pipelined_s"] = round(t_pipe, 4)
    benchmark.extra_info["blocking_cc_s"] = round(t_block, 4)
    benchmark.extra_info["traditional_s"] = round(t_base, 4)
    assert t_pipe <= t_block  # overlap can only help
    assert t_block <= t_base * 1.05  # even blocking CC beats the baseline
    print(f"\npipelined CC {t_pipe:.4f}s | blocking CC {t_block:.4f}s | "
          f"traditional {t_base:.4f}s")


def test_ablation_aggregators_per_node(benchmark):
    """Figure-1's configuration knob: aggregators per node."""

    def run():
        times = {}
        for per_node in (1, 2, 6):
            hints = CollectiveHints(cb_buffer_size=1 * MiB,
                                    aggregators_per_node=per_node)
            res = run_objectio_job(PLATFORM, WORKLOAD, OP, block=False,
                                   hints=hints)
            times[per_node] = res.time
        return times

    times = run_once(benchmark, run)
    benchmark.extra_info.update({f"aggr{k}": round(v, 4)
                                 for k, v in times.items()})
    assert all(v > 0 for v in times.values())
    print("\n" + "  ".join(f"{k}/node: {v:.4f}s" for k, v in times.items()))


def test_ablation_buffer_size_vs_time(benchmark):
    """Interaction of collective buffer size with CC job time."""

    def run():
        out = []
        for cb in (256 * KiB, 1 * MiB, 4 * MiB, 12 * MiB):
            res = run_objectio_job(
                PLATFORM, WORKLOAD, OP, block=False,
                hints=CollectiveHints(cb_buffer_size=cb))
            out.append((cb // KiB, res.time, res.stats.partial_count))
        return out

    rows = run_once(benchmark, run)
    for kib, t, partials in rows:
        benchmark.extra_info[f"cb{kib}KiB"] = round(t, 4)
    print("\n" + "\n".join(
        f"cb={kib:>6} KiB: {t:.4f}s ({partials} partials)"
        for kib, t, partials in rows))


def test_ablation_fault_tolerance(benchmark):
    """Future-work feature: aggregator fail-stop recovery — identical
    results at degraded speed as survivors absorb the crashed
    aggregator's windows."""

    def job(faults):
        res = run_objectio_job(
            PLATFORM, WORKLOAD, OP, block=False,
            hints=CollectiveHints(cb_buffer_size=1 * MiB),
            stripe_size=256 * KiB, policy=RecoveryPolicy(), faults=faults)
        return res.time, res.results[0].global_result, res.injected

    def run():
        t_ok, g_ok, _ = job(None)
        # Seed 14 crashes aggregator rank 24 (of 0, 24 and 48) only.
        t_deg, g_deg, injected = job(FaultPlan(seed=14, agg_crash_rate=0.5))
        assert injected
        assert abs(g_ok - g_deg) < 1e-9 * abs(g_ok)
        return t_ok, t_deg

    t_ok, t_deg = run_once(benchmark, run)
    benchmark.extra_info["healthy_s"] = round(t_ok, 4)
    benchmark.extra_info["degraded_s"] = round(t_deg, 4)
    assert t_deg >= t_ok
    print(f"\nhealthy {t_ok:.4f}s | one aggregator crashed {t_deg:.4f}s "
          f"({t_deg / t_ok:.2f}x) — identical result")


def test_ablation_iterative_plan_caching(benchmark):
    """Future-work feature: a rigid time sweep re-exchanges the offset
    lists only once; later steps reuse the shifted plan."""
    from repro.core import IterativeAnalysis, ObjectIO, sliding_windows
    from repro.dataspace import DatasetSpec, Subarray, block_partition

    spec = DatasetSpec((64, NPROCS * 2, 16, 16), np.float64, name="T")
    base = Subarray((0, 0, 0, 0), (8,) + spec.shape[1:])
    parts = block_partition(base, NPROCS, axis=1)

    def run():
        kernel = Kernel()
        machine = Machine(kernel, PLATFORM)
        file = machine.fs.create_procedural_file(
            "d.nc", spec.n_elements, dtype=np.float64, stripe_size=256 * KiB)
        holder = {}

        def main(ctx):
            oio = ObjectIO(spec, parts[ctx.rank], OP,
                           hints=CollectiveHints(cb_buffer_size=1 * MiB))
            analysis = IterativeAnalysis(file, oio)
            regions = sliding_windows(parts[ctx.rank], axis=0, steps=8,
                                      stride=8)
            results = yield from analysis.run(ctx, regions)
            if ctx.rank == 0:
                holder["stats"] = analysis.stats
            return len(results)

        mpi_run(machine, NPROCS, main)
        return kernel.now, holder["stats"]

    t, stats = run_once(benchmark, run)
    benchmark.extra_info["steps"] = stats.steps
    benchmark.extra_info["plans_exchanged"] = stats.plans_exchanged
    benchmark.extra_info["plans_reused"] = stats.plans_reused
    assert stats.plans_exchanged == 1
    assert stats.plans_reused == stats.steps - 1
    print(f"\n{stats.steps} steps in {t:.4f}s simulated; plan exchanged "
          f"{stats.plans_exchanged}x, reused {stats.plans_reused}x")


def test_ablation_cc_vs_nbcio(benchmark):
    """Related work §V-A: nonblocking collective I/O can overlap only
    *independent* computation; CC computes on the stream itself.

    An app whose only computation consumes the incoming data gets
    nothing from NB-CIO (it degenerates to read-then-compute), while
    CC overlaps it.
    """
    workload = WORKLOAD
    op = OP

    def nbcio_job():
        kernel = Kernel()
        machine = Machine(kernel, PLATFORM)
        file = machine.fs.create_procedural_file(
            "d.nc", workload.dspec.n_elements, dtype=workload.dspec.dtype,
            stripe_size=1 * MiB)

        def main(ctx):
            req = AccessRequest.from_subarray(workload.dspec,
                                              workload.parts[ctx.rank])
            handle = icollective_read(ctx, file, req)
            # Nothing independent to overlap: must wait for the data.
            values = yield from wait_and_unpack(ctx, handle, req)
            yield from ctx.compute(values.size, op.ops_per_element)
            return None

        mpi_run(machine, workload.nprocs, main)
        return kernel.now

    def run():
        t_nbcio = nbcio_job()
        t_cc = run_objectio_job(PLATFORM, workload, op, block=False).time
        return t_nbcio, t_cc

    t_nbcio, t_cc = run_once(benchmark, run)
    benchmark.extra_info["nbcio_s"] = round(t_nbcio, 4)
    benchmark.extra_info["cc_s"] = round(t_cc, 4)
    assert t_cc < t_nbcio
    print(f"\nNB-CIO+compute: {t_nbcio:.4f}s | collective computing: "
          f"{t_cc:.4f}s | speedup {t_nbcio / t_cc:.2f}x")
