"""Registry semantics: recording, snapshots, merging, the off switch."""

import pytest

from repro.flags import current, override
from repro.obs import metrics


@pytest.fixture()
def registry():
    return metrics.MetricsRegistry()


@pytest.fixture()
def obs_on():
    """Scoped enable; always restores the off state."""
    with override(obs=True):
        yield metrics.current()


def test_counter_accumulates(registry):
    registry.count("mpi.messages")
    registry.count("mpi.messages", 3)
    assert registry.counters["mpi.messages"] == 4


def test_gauge_last_write_wins(registry):
    registry.gauge("pfs.blockcache.bytes", 10)
    registry.gauge("pfs.blockcache.bytes", 7)
    assert registry.gauges["pfs.blockcache.bytes"] == 7


def test_histogram_buckets_and_overflow(registry):
    edges = (10, 100)
    for v in (1, 10, 11, 99, 1000):
        registry.observe("mpi.msg_bytes", v, edges)
    snap = registry.snapshot()
    assert snap["histograms"]["mpi.msg_bytes"] == {
        "edges": [10, 100], "counts": [2, 2, 1]}


def test_histogram_edge_mismatch_rejected(registry):
    registry.observe("h", 1, (10,))
    with pytest.raises(ValueError, match="different edges"):
        registry.observe("h", 1, (20,))


def test_snapshot_is_sorted_and_order_independent():
    a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
    a.count("x"), a.count("y", 2)
    b.count("y", 2), b.count("x")
    assert a.snapshot() == b.snapshot()
    assert list(a.snapshot()["counters"]) == ["x", "y"]


def test_snapshot_excludes_volatile_by_default(registry):
    registry.count("pfs.blockcache.hits")
    registry.count("parallel.points_cached")
    registry.count("mpi.messages")
    assert list(registry.snapshot()["counters"]) == ["mpi.messages"]
    full = registry.snapshot(volatile=True)
    assert set(full["counters"]) == {
        "pfs.blockcache.hits", "parallel.points_cached", "mpi.messages"}


def test_merge_reproduces_serial_recording():
    serial = metrics.MetricsRegistry()
    parts = [metrics.MetricsRegistry() for _ in range(3)]
    for i, part in enumerate(parts):
        for reg in (serial, part):
            reg.count("c", i + 1)
            reg.gauge("g", i)
            reg.observe("h", i * 50, (10, 100))
    merged = metrics.MetricsRegistry()
    for part in parts:
        merged.merge(part.snapshot())
    assert merged.snapshot() == serial.snapshot()
    assert merged.gauges["g"] == 2  # last-write-wins in merge order


def test_merge_rejects_mismatched_edges(registry):
    registry.observe("h", 1, (10,))
    other = metrics.MetricsRegistry()
    other.observe("h", 1, (20,))
    with pytest.raises(ValueError, match="edges differ"):
        registry.merge(other.snapshot())


def test_off_by_default_and_flag_round_trip():
    assert metrics.current() is None
    assert not current().obs
    with override(obs=True):
        assert current().obs
        assert isinstance(metrics.current(), metrics.MetricsRegistry)
    assert metrics.current() is None
    assert not current().obs


def test_override_obs_restores_previous_registry(obs_on):
    obs_on.count("outer")
    with metrics.override_obs(True):
        metrics.current().count("inner")
    assert metrics.current() is obs_on
    assert "inner" not in obs_on.counters
    with metrics.override_obs(None):
        assert metrics.current() is obs_on


def test_reset_installs_fresh_registry_keeping_flag(obs_on):
    obs_on.count("stale")
    metrics.reset()
    assert metrics.current() is not None
    assert metrics.current() is not obs_on
    assert not metrics.current().counters


def test_reset_is_noop_when_off():
    metrics.reset()
    assert metrics.current() is None


def test_capture_point_isolates_and_restores(obs_on):
    obs_on.count("ambient")
    with metrics.capture_point() as cap:
        metrics.current().count("pointed")
    assert metrics.current() is obs_on
    assert cap.snapshot()["counters"] == {"pointed": 1}
    assert "pointed" not in obs_on.counters


def test_capture_point_noop_when_off():
    with metrics.capture_point() as cap:
        assert metrics.current() is None
    assert cap.snapshot() is None


def test_suppressed_discards(obs_on):
    with metrics.suppressed():
        metrics.current().count("dropped")
    assert metrics.current() is obs_on
    assert not obs_on.counters


def test_instrumented_run_records_nothing_when_off():
    """The no-op contract: a real simulated job under the default
    (off) flag leaves observability untouched end to end."""
    from tests.obs.jobs import tiny_collective_job

    assert metrics.current() is None
    tiny_collective_job()
    assert metrics.current() is None


def test_instrumented_run_records_when_on(obs_on):
    from tests.obs.jobs import tiny_collective_job

    tiny_collective_job()
    snap = obs_on.snapshot()
    assert snap["counters"]["sim.runs"] == 1
    assert snap["counters"]["mpi.messages"] > 0
    assert snap["counters"]["pfs.ost.bytes"] > 0
    assert snap["counters"]["io.shuffle_bytes"] == \
        snap["counters"]["io.shuffle_bytes_measured"]


def test_env_var_enables_registry_in_fresh_process():
    import os
    import subprocess
    import sys

    code = ("from repro.obs import metrics; "
            "import sys; sys.exit(0 if metrics.current() is not None else 3)")
    for env_value, expected in (("1", 0), ("off", 3)):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_OBS": env_value, "PATH": "",
                 # The caller's choice not to write .pyc files holds here too.
                 **{k: v for k, v in os.environ.items()
                    if k == "PYTHONDONTWRITEBYTECODE"}},
            cwd=".", check=False)
        assert proc.returncode == expected, env_value
