"""The ``python -m repro.check crash`` CLI: drills, manifest, usage."""

import subprocess
import sys

import pytest

from repro.check.crash import _child_env


def _run_check(args, cwd, extra_env=None, timeout=300):
    env = _child_env()
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-m", "repro.check"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)


@pytest.mark.slow
def test_crash_campaign_passes_and_writes_recovery_manifest(tmp_path):
    # Two drills = one worker-death + one parent-kill-sweep scenario;
    # with REPRO_OBS on the CLI must embed the (deterministic) recovery
    # summary in its manifest, and the report invariants must hold.
    proc = _run_check(["crash", "2", "--seed", "3"], tmp_path,
                      extra_env={"REPRO_OBS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert "seed=3 scenario=worker-death ok" in proc.stdout
    assert "seed=4 scenario=parent-kill-sweep ok" in proc.stdout
    assert "2 drill(s), all recovered bit-identically" in proc.stdout

    from repro.obs.manifest import load_manifest
    from repro.obs.report import check_invariants
    manifest = load_manifest(tmp_path / "results" / "crash" /
                             "manifest.json")
    recovery = manifest["recovery"]
    assert recovery["worker_deaths"] == 1
    assert recovery["point_retries"] == 1
    # Seed 4 kills the sweep's parent after 1 + 4 % 5 = 5 journal puts.
    assert recovery["points_resumed"] == 5
    assert (recovery["points_resumed"] + recovery["points_executed"]
            + recovery["points_cached"]) == recovery["points_total"]
    assert check_invariants(manifest) == []
    assert manifest["config"] == {"base_seed": 3, "n": 2}


def test_crash_count_must_be_positive(tmp_path):
    proc = _run_check(["crash", "0"], tmp_path)
    assert proc.returncode == 2
    assert "crash: error: argument N: must be at least 1" in proc.stderr


def test_crash_and_chaos_are_mutually_exclusive(tmp_path):
    proc = _run_check(["crash", "2", "chaos", "2"], tmp_path)
    assert proc.returncode == 2


def test_resume_requires_chaos(tmp_path):
    proc = _run_check(["crash", "--resume"], tmp_path)
    assert proc.returncode == 2
    assert "--resume" in proc.stderr
