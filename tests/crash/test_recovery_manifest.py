"""The optional ``recovery`` manifest section and its report invariants."""

from repro.obs import metrics
from repro.obs.manifest import build_manifest, manifest_json, write_manifest
from repro.obs.report import check_invariants, check_recovery, render_manifest


def _clean_recovery():
    return {"worker_deaths": 1, "point_retries": 2,
            "points_total": 10, "points_resumed": 3,
            "points_executed": 6, "points_cached": 1}


def test_build_manifest_embeds_sorted_recovery():
    with metrics.override_obs(True):
        manifest = build_manifest("crash", config={"n": 8},
                                  recovery=_clean_recovery())
    assert list(manifest["recovery"]) == sorted(_clean_recovery())
    assert all(isinstance(v, int) for v in manifest["recovery"].values())
    # Serialization stays canonical with the extra section present.
    assert manifest_json(manifest).endswith("\n")


def test_build_manifest_without_recovery_has_no_section():
    with metrics.override_obs(True):
        manifest = build_manifest("fig10")
    assert "recovery" not in manifest


def test_clean_recovery_passes_all_invariants():
    assert check_recovery(_clean_recovery()) == []


def test_recovery_invariant_violations_are_each_reported():
    unretried = _clean_recovery()
    unretried["worker_deaths"] = 5
    [msg] = check_recovery(unretried)
    assert "a death went unretried" in msg

    lost = _clean_recovery()
    lost["points_executed"] = 5
    [msg] = check_recovery(lost)
    assert "lost or invented work" in msg

    negative = _clean_recovery()
    negative["worker_deaths"] = -1
    msgs = check_recovery(negative)
    assert any("negative" in m for m in msgs)


def test_check_invariants_covers_recovery_section():
    with metrics.override_obs(True):
        manifest = build_manifest("crash", recovery=_clean_recovery())
    assert check_invariants(manifest) == []
    manifest["recovery"]["points_total"] = 99
    violations = check_invariants(manifest, origin="crash.json")
    assert any("crash.json" in v and "lost or invented" in v
               for v in violations)


def test_render_manifest_includes_recovery_table():
    with metrics.override_obs(True):
        manifest = build_manifest("crash", recovery=_clean_recovery())
    text = render_manifest(manifest)
    assert "Supervised-sweep recovery" in text
    assert "worker_deaths" in text


def test_write_manifest_roundtrips_recovery(tmp_path):
    from repro.obs.manifest import load_manifest
    with metrics.override_obs(True):
        path = write_manifest("crash", root=tmp_path,
                              recovery=_clean_recovery())
    loaded = load_manifest(path)
    assert loaded["recovery"] == {k: int(v)
                                  for k, v in _clean_recovery().items()}
    assert check_invariants(loaded) == []
