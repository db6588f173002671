"""The schedule shaker: an executable schedule-invariance proof.

No data result may depend on how the kernel orders same-time events;
this module checks that by *running different schedules*.  A kernel
constructed under ``repro.flags.override(shake=seed)`` permutes
same-time event-queue ties with a seeded bijection (see
``Kernel.schedule``), so each seed exercises a different — but fully
deterministic and replayable — interleaving of simultaneously-enabled
events.  Shared simulated state that two same-time events update
without an ordering between them shows up once a seed reorders them:
that run's data diverges from the FIFO baseline.

The scenario list
-----------------
:func:`scenarios` is the one list of small simulated jobs both
``repro.check`` batteries run: the smoke battery (``python -m
repro.check``) runs each once under ``override(check=True)`` and adds
its own equality checks; :func:`run_battery` (``--shake``) runs each,
plus the chaos scenarios, under ``override(check=True, shake=seed)``
for the FIFO baseline and every shaken seed.

What must be invariant
----------------------
*Data results*: reduced values, per-rank payloads, verdict tuples,
bytes served/sent, message counts.  The battery asserts these are
bit-identical across the baseline FIFO schedule and ``K`` shaken
schedules.

What is *not* asserted invariant: simulated **timings** under
contention.  The FIFO tie-break is part of the documented model
semantics — two requests hitting a capacity-1 OST at the same instant
are served in scheduling order, and permuting that order legitimately
changes queueing delays and therefore makespans.  Figures whose rows
contain times are therefore compared at the *data-signature* level
here; the figures that are fully schedule-invariant are asserted
row-identical in ``tests/check/test_shake.py``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Tuple

import numpy as np

from ..cluster import Machine
from ..config import small_test_machine
from ..core import ObjectIO, SUM_OP, object_get
from ..dataspace import DatasetSpec, block_partition, full_selection
from ..faults import (FaultInjector, FaultPlan, RecoveryPolicy,
                      resilient_object_get as resilient)
from ..flags import override
from ..io import AccessRequest, collective_read, collective_write
from ..mpi import collectives as coll, mpi_run
from ..mpi.op import SUM
from ..pfs import ArraySource
from ..sim import Kernel
from . import chaos

#: Ranks per scenario job.
NPROCS = 4


def machine() -> Machine:
    """A fresh two-node test machine on its own kernel."""
    return Machine(Kernel(), small_test_machine(nodes=2, cores_per_node=4))


def dataset() -> Tuple[DatasetSpec, List[Any]]:
    """The scenarios' ``(dataset spec, per-rank selections)``."""
    spec = DatasetSpec((8, 16, 16), np.float64, name="battery")
    return spec, block_partition(full_selection(spec), NPROCS, axis=1)


def collective_battery() -> Any:
    """Barrier, allgather, allreduce and alltoall on one communicator."""
    def body(ctx):
        yield from coll.barrier(ctx.comm)
        values = yield from coll.allgather(ctx.comm, ctx.rank * 10)
        total = yield from coll.allreduce(
            ctx.comm, np.full(4, ctx.rank, dtype=np.int64), SUM)
        part = yield from coll.alltoall(
            ctx.comm, [f"{ctx.rank}->{d}" for d in range(ctx.size)])
        return tuple(values), int(total.sum()), tuple(part)
    return mpi_run(machine(), NPROCS, body)


def two_phase_read_write() -> Any:
    """A two-phase collective read, then a collective write of it."""
    m = machine()
    spec, parts = dataset()
    file = m.fs.create_procedural_file("battery.nc", spec.n_elements)
    out = m.fs.create_file(
        "battery_out.nc",
        ArraySource(np.zeros(spec.n_elements, dtype=spec.dtype)))

    def body(ctx):
        request = AccessRequest.from_subarray(spec, parts[ctx.rank])
        buf = yield from collective_read(ctx, file, request)
        data = np.asarray(request.as_array(buf))
        yield from collective_write(ctx, out, request, data)
        return float(data.sum())
    sums = mpi_run(m, NPROCS, body)
    # Contended data signature: the OSTs are capacity-1 FIFO servers,
    # so *times* shift under shaking, but what was read, written and
    # sent must not.
    return sums, m.fs.total_bytes_served()


def sum_job(faulted: Any) -> Any:
    """One SUM reduction over :func:`dataset`: plain ``object_get``
    (``faulted=None``), else ``resilient_object_get`` with seeded
    aggregator crashes (``True``, failing unless one fired) or none
    (``False``)."""
    m = machine()
    spec, parts = dataset()
    file = m.fs.create_procedural_file("battery.nc", spec.n_elements)
    if faulted:
        FaultInjector.attach(m, FaultPlan(seed=7, agg_crash_rate=0.35))
    policy = RecoveryPolicy()

    def body(ctx):
        oio = ObjectIO(spec, parts[ctx.rank], SUM_OP)
        result = yield from (object_get(ctx, file, oio) if faulted is None
                             else resilient(ctx, file, oio, policy=policy))
        return result.global_result
    results = mpi_run(m, NPROCS, body)
    if faulted and not m.faults.injected():
        raise AssertionError(
            "fault plan injected nothing; its seed needs adjusting")
    return results


def scenarios() -> List[Tuple[str, Callable[[], Any]]]:
    """The one scenario list: label → callable returning plain,
    comparable data."""
    return [
        ("collective battery", collective_battery),
        ("two-phase read+write", two_phase_read_write),
        ("object_get reduction", lambda: sum_job(None)),
        ("faulted resilient object_get", lambda: sum_job(True)),
    ]


def _chaos_scenarios() -> List[Tuple[str, Callable[[], Any]]]:
    """The chaos campaign's scenarios, slot 0 of each (shake battery
    only: each already runs a faulted job against its reference)."""
    _spec, chaos_scenarios = chaos._scenarios()
    return [(f"chaos {name}", lambda i=i: chaos.run_point(i, 0))
            for i, (name, _body, _rate, _policy)
            in enumerate(chaos_scenarios)]


def shake_seeds(k: int, base_seed: int = 0) -> List[int]:
    """The ``K`` tie-break seeds a battery run tries (distinct, stable,
    and never 0 so every one actually permutes)."""
    return [base_seed * 1000 + i + 1 for i in range(k)]


def run_battery(k: int, quiet: bool = False, base_seed: int = 0) -> int:
    """Run every scenario under the FIFO baseline plus ``k`` shaken
    schedules, runtime sanitizers on throughout.

    Returns 0 when every shaken run's data was bit-identical to the
    baseline; 1 otherwise (each failure is printed with the scenario
    and ``seed=`` so it replays exactly via ``REPRO_SHAKE=<seed>``).
    """
    failures: List[str] = []
    seeds = shake_seeds(k, base_seed)
    for label, fn in scenarios() + _chaos_scenarios():
        before = len(failures)
        try:
            with override(check=True, shake=None):
                base = fn()
            for seed in seeds:
                with override(check=True, shake=seed):
                    out = fn()
                if out != base:
                    failures.append(
                        f"{label}: data diverged under shaken schedule "
                        f"seed={seed}:\n    baseline: {base!r:.240}\n"
                        f"    shaken:   {out!r:.240}")
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        if len(failures) == before and not quiet:
            print(f"repro.check shake: {label} invariant under "
                  f"{len(seeds)} shaken schedule(s)")
    if failures:
        for failure in failures:
            print(f"repro.check shake FAILED: {failure}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"repro.check shake: all scenarios bit-identical across "
              f"{len(seeds) + 1} schedules")
    return 0
