"""Manifest assembly, serialization stability, and the ledger summary."""

import pytest

from repro.obs import metrics
from repro.obs.manifest import (SCHEMA_VERSION, build_manifest,
                                ledger_summary, load_manifest,
                                manifest_json, write_manifest)


def _registry():
    reg = metrics.MetricsRegistry()
    reg.count("mpi.messages", 5)
    reg.count("faults.inject:ost-corrupt", 2)
    reg.count("faults.detect:ost-corrupt", 2)
    reg.count("faults.recover:retry", 2)
    reg.count("parallel.points_cached", 9)  # volatile: must not appear
    return reg


def test_ledger_summary_projects_fault_counters():
    snap = _registry().snapshot()
    assert ledger_summary(snap) == {
        "injected": 2, "detected": 2, "recovered": 2}


def test_build_manifest_shape():
    manifest = build_manifest("t", config={"n": 3}, registry=_registry())
    assert manifest["schema"] == SCHEMA_VERSION
    assert manifest["run"] == "t"
    assert manifest["config"] == {"n": 3}
    assert set(manifest["flags"]) == {"check", "obs", "shake"}
    assert len(manifest["code_digest"]) == 64
    assert manifest["ledger"] == {
        "injected": 2, "detected": 2, "recovered": 2}
    assert "parallel.points_cached" not in manifest["metrics"]["counters"]


def test_build_manifest_requires_obs():
    assert metrics.current() is None
    with pytest.raises(ValueError, match="observability off"):
        build_manifest("t")


def test_manifest_json_is_canonical():
    a = build_manifest("t", registry=_registry())
    b = build_manifest("t", registry=_registry())
    assert manifest_json(a) == manifest_json(b)
    assert manifest_json(a).endswith("}\n")


def test_write_and_load_round_trip(tmp_path):
    path = write_manifest("t", config={"n": 1}, root=tmp_path,
                          registry=_registry())
    assert path == tmp_path / "t" / "manifest.json"
    assert load_manifest(path) == build_manifest(
        "t", config={"n": 1}, registry=_registry())


def test_load_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"schema": 999}')
    with pytest.raises(ValueError, match="unsupported manifest schema"):
        load_manifest(bad)
    bad.write_text('{"run": "x"}')
    with pytest.raises(ValueError, match="no schema field"):
        load_manifest(bad)
