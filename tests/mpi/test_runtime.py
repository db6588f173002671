"""Unit tests for the MPI runtime (contexts, CPU primitives)."""

import pytest

from repro.cluster import Machine
from repro.config import CostModel, small_test_machine
from repro.errors import ConfigError
from repro.mpi import build_contexts, mpi_run
from repro.profiling import CpuProfiler
from repro.sim import Kernel


def machine(nodes=2, cores=4, **cost_kw):
    cost = CostModel(**cost_kw) if cost_kw else CostModel()
    return Machine(Kernel(), small_test_machine(nodes=nodes,
                                                cores_per_node=cores,
                                                cost=cost))


def test_contexts_rank_node_mapping():
    m = machine(nodes=2, cores=4)
    ctxs = build_contexts(m, 8)
    assert [c.rank for c in ctxs] == list(range(8))
    assert [c.node.index for c in ctxs] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert all(c.size == 8 for c in ctxs)


def test_oversubscription_checked():
    m = machine(nodes=2, cores=2)
    with pytest.raises(ConfigError):
        build_contexts(m, 5)


def test_compute_occupies_core_time():
    m = machine(core_element_rate=1000.0)

    def main(ctx):
        yield from ctx.compute(500)
        return ctx.kernel.now

    res = mpi_run(m, 1, main)
    assert res[0] == pytest.approx(0.5)


def test_compute_cores_contend():
    # 1 node with 2 cores, one computing rank per core: one wave.
    m = Machine(Kernel(), small_test_machine(
        nodes=1, cores_per_node=2, cost=CostModel(core_element_rate=1000.0)))

    def main(ctx):
        yield from ctx.compute(1000)
        return ctx.kernel.now

    res = mpi_run(m, 2, main)
    assert res == [pytest.approx(1.0)] * 2


def test_compute_parallel_uses_node_cores():
    m = machine(nodes=1, cores=4, core_element_rate=1000.0)

    def main(ctx):
        yield from ctx.compute_parallel(4000)
        return ctx.kernel.now

    res = mpi_run(m, 1, main)
    # 4 seconds of single-core work over 4 cores -> 1 second.
    assert res[0] == pytest.approx(1.0)


def test_compute_parallel_ways_capped_by_elements():
    m = machine(nodes=1, cores=4, core_element_rate=1000.0)

    def main(ctx):
        yield from ctx.compute_parallel(2, ops_per_element=500.0)
        return ctx.kernel.now

    res = mpi_run(m, 1, main)
    # Only 2 elements -> at most 2 ways -> 0.5 s.
    assert res[0] == pytest.approx(0.5)


def test_compute_parallel_records_one_interval_per_core():
    prof = CpuProfiler(1)
    m = machine(nodes=1, cores=4, core_element_rate=1000.0)

    def main(ctx):
        yield from ctx.compute_parallel(4000)

    mpi_run(m, 1, main, profiler=prof)
    assert [(iv.kind, iv.start, iv.end) for iv in prof.intervals] == \
        [("user", 0.0, 1.0)] * 4


def test_compute_parallel_on_busy_cores_records_each_share():
    """Rank 1 keeps one of the two cores busy for 1 s, so rank 0's
    two-way fan-out runs its shares on 0..1 and 1..2."""
    prof = CpuProfiler(2)
    m = machine(nodes=1, cores=2, core_element_rate=1000.0)

    def main(ctx):
        if ctx.rank == 1:
            yield from ctx.compute(1000)
        else:
            yield ctx.kernel.timeout(0.5)
            yield from ctx.compute_parallel(2000)
        return ctx.kernel.now

    assert mpi_run(m, 2, main, profiler=prof) == [2.0, 1.0]
    spans = sorted((iv.rank, iv.start, iv.end) for iv in prof.intervals)
    assert spans == [(0, 0.5, 1.5), (0, 1.0, 2.0), (1, 0.0, 1.0)]


def test_memcpy_records_sys_time():
    prof = CpuProfiler(1)
    m = machine(nodes=1, memcpy_bandwidth=1000.0)

    def main(ctx):
        yield from ctx.memcpy(500)
        return None

    mpi_run(m, 1, main, profiler=prof)
    totals = prof.totals()
    assert totals["sys"] == pytest.approx(0.5)
    assert totals["user"] == 0.0


def test_wait_recording_records_wait():
    prof = CpuProfiler(1)
    m = machine(nodes=1)

    def main(ctx):
        yield from ctx.wait_recording(ctx.kernel.timeout(2.0))
        return None

    mpi_run(m, 1, main, profiler=prof)
    assert prof.totals()["wait"] == pytest.approx(2.0)


def test_mpi_run_returns_in_rank_order():
    m = machine()

    def main(ctx):
        yield ctx.kernel.timeout((ctx.size - ctx.rank) * 0.1)
        return ctx.rank

    assert mpi_run(m, 6, main) == list(range(6))
