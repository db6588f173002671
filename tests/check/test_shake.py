"""Schedule-invariance tests: shaking the event queue must not change
any data result.

The shaker permutes same-time tie-breaks with a seeded bijection, so
each seed is a different — but fully deterministic — interleaving of
simultaneously-enabled events.  Data results must be bit-identical
across schedules everywhere; figures whose rows carry no contended
timings must be *row*-identical too.  A negative control plants an
unordered shared write and checks that shaking exposes it.
"""

import numpy as np
import pytest

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


def _unordered_appends():
    """Four processes append their id to one list at the same instant,
    with nothing ordering the writes: the list's order is whatever the
    kernel's tie-break makes it."""
    kernel = Kernel()
    order = []

    def writer(ident):
        yield kernel.timeout(1.0)
        order.append(ident)

    for ident in range(NPROCS):
        kernel.process(writer(ident))
    kernel.run()
    return tuple(order)


def test_shaker_exposes_an_unordered_shared_write():
    """The negative control: a result that depends on the same-time
    tie-break is FIFO order under the default schedule and differs
    under at least one shaken one."""
    with override(shake=None):
        assert _unordered_appends() == (0, 1, 2, 3)
    shaken = set()
    for seed in shake_seeds(4):
        with override(shake=seed):
            shaken.add(_unordered_appends())
    assert shaken - {(0, 1, 2, 3)}, "no shaken schedule reordered the writes"


def test_battery_is_clean():
    """The CLI gate in miniature: every battery scenario data-invariant
    under shaken schedules."""
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
