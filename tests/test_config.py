"""Unit tests for platform configuration and the cost model."""

from dataclasses import replace

import pytest

from repro.config import (CostModel, MiB, PlatformSpec, hopper_like,
                          small_test_machine)
from repro.errors import ConfigError


def test_msg_time_alpha_beta():
    c = CostModel(net_latency=1e-6, hop_latency=1e-7, link_bandwidth=1e9)
    assert c.msg_time(0, hops=1) == pytest.approx(1.1e-6)
    assert c.msg_time(1_000_000, hops=1) == pytest.approx(1.1e-6 + 1e-3)
    assert c.msg_time(0, hops=5) == pytest.approx(1.5e-6)


def test_ost_time_seek_plus_bandwidth():
    c = CostModel(ost_seek=1e-3, ost_bandwidth=1e8)
    assert c.ost_time(0) == pytest.approx(1e-3)
    assert c.ost_time(10**8) == pytest.approx(1.001)


def test_compute_time_scaling():
    c = CostModel(core_element_rate=1e6)
    assert c.compute_time(1_000_000) == pytest.approx(1.0)
    assert c.compute_time(1_000_000, ops_per_element=0.5) == pytest.approx(0.5)


def test_negative_sizes_rejected():
    c = CostModel()
    with pytest.raises(ConfigError):
        c.ost_time(-1)
    with pytest.raises(ConfigError):
        c.compute_time(-1)
    with pytest.raises(ConfigError):
        c.memcpy_time(-1)


def test_non_finite_rate_rejected_where_it_enters():
    # Unchecked, ost_time(1024) would return nan.
    with pytest.raises(ConfigError, match="ost_bandwidth"):
        CostModel(ost_bandwidth=float("nan"))


def test_negative_latency_rejected_where_it_enters():
    # Unchecked, msg_time(10) would return a negative duration.
    with pytest.raises(ConfigError, match="net_latency"):
        CostModel(net_latency=-1.0)


@pytest.mark.parametrize("field, value", [
    ("hop_latency", float("inf")), ("ost_seek", float("nan")),
    ("intra_node_latency", -1e-9), ("link_bandwidth", 0.0),
    ("memcpy_bandwidth", float("inf")), ("core_element_rate", -1.0),
    ("intra_node_bandwidth", float("nan")),
])
def test_every_cost_coefficient_is_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        CostModel(**{field: value})
    with pytest.raises(ConfigError, match=field):
        replace(CostModel(), **{field: value})


def test_zero_latencies_stay_legal():
    c = CostModel(net_latency=0.0, hop_latency=0.0, intra_node_latency=0.0,
                  ost_seek=0.0)
    assert c.msg_time(0) == 0.0


def test_platform_validation():
    with pytest.raises(ConfigError):
        PlatformSpec(nodes=0)
    with pytest.raises(ConfigError):
        PlatformSpec(cores_per_node=0)
    with pytest.raises(ConfigError):
        PlatformSpec(n_osts=0)
    with pytest.raises(ConfigError):
        PlatformSpec(default_stripe_size=0)


def test_platform_totals_and_mesh():
    p = PlatformSpec(nodes=6, cores_per_node=12)
    assert p.total_cores == 72
    nx, ny = p.resolved_mesh_shape()
    assert nx * ny >= 6


def test_hopper_like_preset():
    p = hopper_like(nodes=5)
    assert p.cores_per_node == 24
    assert p.n_osts == 156
    assert p.default_stripe_size == 4 * MiB
    assert p.torus


def test_small_test_machine_preset():
    p = small_test_machine()
    assert p.nodes == 2
    assert p.total_cores == 8
    assert not p.torus
