"""Schedule-invariance tests: shaking the event queue must not change
any data result.

The shaker permutes same-time tie-breaks with a seeded bijection, so
each seed is a different — but fully deterministic — interleaving of
simultaneously-enabled events.  Data results must be bit-identical
across schedules everywhere; figures whose rows carry no contended
timings must be *row*-identical too.
"""

import numpy as np
import pytest

from repro.check.races import drain_findings
from repro.check.shake import run_battery, shake_seeds
from repro.cluster import Machine
from repro.config import small_test_machine
from repro.flags import override
from repro.mpi import collectives as coll, mpi_run
from repro.mpi.op import SUM
from repro.sim import Kernel

NPROCS = 4


def _collective_job():
    """A small data-producing job: collectives over one machine."""
    machine = Machine(Kernel(), small_test_machine(nodes=2,
                                                   cores_per_node=4))

    def body(ctx):
        yield from coll.barrier(ctx.comm)
        values = yield from coll.allgather(ctx.comm, ctx.rank * 10)
        total = yield from coll.allreduce(
            ctx.comm, np.full(4, ctx.rank, dtype=np.int64), SUM)
        part = yield from coll.alltoall(
            ctx.comm, [f"{ctx.rank}->{d}" for d in range(ctx.size)])
        return tuple(values), int(total.sum()), tuple(part)

    results = mpi_run(machine, NPROCS, body)
    return results, machine.kernel.now


def test_shake_seeds_are_distinct_and_nonzero():
    seeds = shake_seeds(6)
    assert len(set(seeds)) == 6
    assert all(s != 0 for s in seeds)
    assert shake_seeds(6) == seeds  # stable
    assert set(shake_seeds(6, base_seed=1)).isdisjoint(seeds)


def test_same_shake_seed_replays_exactly():
    """A shaken schedule is still deterministic: same seed, same
    everything — results *and* timings."""
    with override(shake=17):
        first = _collective_job()
    with override(shake=17):
        second = _collective_job()
    assert first == second


def test_shaken_schedules_preserve_data():
    with override(shake=None):
        base_results, _base_time = _collective_job()
    for seed in shake_seeds(3):
        with override(shake=seed):
            results, _time = _collective_job()
        assert results == base_results, f"data diverged under seed={seed}"


def test_shaken_run_is_race_free_under_tracker():
    drain_findings()
    with override(races=True), override(shake=shake_seeds(1)[0]):
        _collective_job()
    assert drain_findings() == []


def test_battery_is_clean():
    """The CLI gate in miniature: every battery scenario race-free and
    data-invariant under shaken schedules."""
    assert run_battery(1, quiet=True) == 0


#: Quick figures whose rows carry no contended queueing times: these
#: must be *row*-identical under any schedule (the timing-bearing
#: figures are covered at the data-signature level by the battery).
ROW_INVARIANT_QUICK_FIGURES = ["table1", "fig11", "fig14", "fig15"]


@pytest.mark.slow
@pytest.mark.parametrize("name", ROW_INVARIANT_QUICK_FIGURES)
def test_quick_figure_rows_are_schedule_invariant(name):
    from repro.experiments import registry

    with override(shake=None):
        base = registry.run(name, quick=True)
    with override(shake=31):
        shaken = registry.run(name, quick=True)
    assert shaken.rows == base.rows
    assert shaken.headers == base.headers
