"""The fig15 silent-corruption sweep, at test scale."""

from repro.experiments import fig15_integrity
from repro.experiments.registry import MODULES


def test_fig15_registered():
    assert MODULES["fig15"] is fig15_integrity


def test_fig15_small_sweep_reproduces_checksums_off_numbers():
    result = fig15_integrity.run(nprocs=8, per_rank_kib=16,
                                 corrupt_rates=(0.0, 0.4))
    assert result.column("corrupt_rate") == [0.0, 0.4]
    # Every row — idle integrity layer and repairing one — must equal
    # the checksums-off fault-free reduction bit for bit.
    assert all(result.column("result_ok"))
    # Corruption was actually injected and detected at the swept rate.
    assert result.column("detected")[1] > 0
    # The idle integrity layer costs no detections.
    assert result.column("detected")[0] == 0


def test_fig15_is_deterministic():
    a = fig15_integrity.run(nprocs=8, per_rank_kib=16, corrupt_rates=(0.1,))
    b = fig15_integrity.run(nprocs=8, per_rank_kib=16, corrupt_rates=(0.1,))
    assert a.rows == b.rows
