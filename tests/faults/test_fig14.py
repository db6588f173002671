"""The fig14 fault-rate sweep, at test scale."""

from repro.experiments import fig14_faults
from repro.experiments.registry import MODULES


def test_fig14_registered():
    assert MODULES["fig14"] is fig14_faults


def test_fig14_small_sweep_reproduces_fault_free_numbers():
    result = fig14_faults.run(nprocs=8, per_rank_kib=16,
                              fault_rates=(0.0, 0.2))
    assert result.column("fault_rate") == [0.0, 0.2]
    # Every faulted row must reproduce the fault-free reduction.
    assert all(result.column("result_ok"))
    # Faults were actually injected at the nonzero rate.
    assert result.column("injected")[1] > 0
    # Recovery costs time, never correctness.
    assert result.column("cc_s")[1] > result.column("cc_s")[0]
    assert result.column("mpi_s")[1] > result.column("mpi_s")[0]


def test_fig14_is_deterministic():
    a = fig14_faults.run(nprocs=8, per_rank_kib=16, fault_rates=(0.1,))
    b = fig14_faults.run(nprocs=8, per_rank_kib=16, fault_rates=(0.1,))
    assert a.rows == b.rows
