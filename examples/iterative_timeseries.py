#!/usr/bin/env python3
"""Iterative analysis + fault tolerance (the paper's future work, §VI).

Sweeps a moving window over the time axis of a climate variable,
computing per-step moments with :class:`IterativeAnalysis` — the plan
is exchanged once and reused (shifted) for every later step — and then
repeats one step under a seeded :class:`~repro.faults.FaultPlan` that
crashes an aggregator, to show the resilient runtime reproducing the
identical answer, slower.

Run:  python examples/iterative_timeseries.py
"""

import numpy as np

from repro import (CollectiveHints, DatasetSpec, Kernel, Machine, MiB,
                   MOMENTS_OP, ObjectIO, Subarray, hopper_like, mpi_run)
from repro.core import IterativeAnalysis, sliding_windows
from repro.dataspace import block_partition
from repro.faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                          resilient_object_get)
from repro.workloads.climate import climate_field

NPROCS = 48
STEPS = 8
WINDOW_T = 4
SHAPE = (STEPS * WINDOW_T, NPROCS * 2, 16, 16)


def build():
    kernel = Kernel()
    machine = Machine(kernel, hopper_like(nodes=2, n_osts=16))
    file = machine.fs.create_procedural_file(
        "climate.nc", int(np.prod(SHAPE)), dtype=np.float64,
        func=climate_field, stripe_size=MiB // 16)
    return kernel, machine, file


def main():
    spec = DatasetSpec(SHAPE, np.float64, name="temperature")
    base_global = Subarray((0, 0, 0, 0), (WINDOW_T,) + SHAPE[1:])
    parts = block_partition(base_global, NPROCS, axis=1)

    kernel, machine, file = build()
    captured = {}

    def main_rank(ctx):
        oio = ObjectIO(spec, parts[ctx.rank], MOMENTS_OP.with_cost(3.0),
                       hints=CollectiveHints(cb_buffer_size=1 * MiB))
        analysis = IterativeAnalysis(file, oio)
        regions = sliding_windows(parts[ctx.rank], axis=0, steps=STEPS,
                                  stride=WINDOW_T)
        results = yield from analysis.run(ctx, regions)
        if ctx.rank == 0:
            captured["stats"] = analysis.stats
        return [r.global_result for r in results]

    results = mpi_run(machine, NPROCS, main_rank)
    stats = captured["stats"]
    print(f"time-series sweep: {STEPS} steps, plan exchanged "
          f"{stats.plans_exchanged}x, reused {stats.plans_reused}x, "
          f"{kernel.now * 1e3:.1f} ms simulated")
    for s, (mean, var) in enumerate(results[0]):
        bar = "#" * int((mean - 270) * 2)
        print(f"  window t=[{s * WINDOW_T:2d},{(s + 1) * WINDOW_T:2d}): "
              f"mean {mean:7.3f} K  var {var:6.2f}  {bar}")

    # --- fault tolerance: rerun step 0 with an aggregator crash -------
    # A healthy step takes a few ms, so a 20 ms receive timeout never
    # suspects a live aggregator (the default 0.5 s suits larger jobs).
    policy = RecoveryPolicy(read_timeout=0.02)

    def run_step0(plan):
        k, m, f = build()
        injector = FaultInjector.attach(m, plan)

        def rank_main(ctx):
            # Smaller windows here so the failure's extra work is visible.
            oio = ObjectIO(spec, parts[ctx.rank],
                           MOMENTS_OP.with_cost(40.0),
                           hints=CollectiveHints(cb_buffer_size=MiB // 8))
            res = yield from resilient_object_get(ctx, f, oio, policy)
            return res.global_result

        out = mpi_run(m, NPROCS, rank_main)
        return out[0], k.now, injector.injected()

    healthy, t_ok, _ = run_step0(FaultPlan())
    # Seed 6 crashes aggregator rank 0 (of ranks 0 and 24) mid-schedule,
    # then rank 24 after adopting rank 0's windows: one failover round,
    # then the last window falls back to independent reads.
    crashed, t_crash, injected = run_step0(
        FaultPlan(seed=6, agg_crash_rate=0.5))
    assert healthy == crashed
    assert any(r.kind == "inject:agg-crash" for r in injected)
    print("\nfault tolerance: step 0 rerun under FaultPlan(seed=6, "
          "agg_crash_rate=0.5)")
    for record in injected:
        print(f"  {record.format()}")
    print(f"  healthy run: mean {healthy[0]:.3f} K in {t_ok * 1e3:.1f} ms")
    print(f"  crashed run: mean {crashed[0]:.3f} K in {t_crash * 1e3:.1f} ms "
          f"({t_crash / t_ok:.2f}x slower, bit-identical result)")


if __name__ == "__main__":
    main()
