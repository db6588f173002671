"""Crash campaign: seeded preemption drills for the sweep supervisor.

``python -m repro.check --crash N`` runs ``N`` scenario instances that
murder sweep executions at deterministic points and assert that the
supervision layer (:mod:`repro.parallel.supervisor`) and the run
journal (a :class:`~repro.parallel.pointcache.PointCache` at
:func:`~repro.parallel.pointcache.journal_root`) recover them
*bit-exactly*:

* ``worker-death`` — a supervised sweep whose trap point SIGKILLs its
  own worker on the first attempt (a stand-in for the OOM killer).
  The supervisor must detect the death, retry the point on a fresh
  worker, and produce exactly the undisturbed results with exactly one
  recorded death and one retry.
* ``parent-kill-sweep`` — a journaled sweep runs in a subprocess that
  the ``REPRO_JOURNAL_DIE_AFTER=K`` hook SIGKILLs right after its
  ``K``-th durable journal put.  A second invocation over the same
  journal must replay exactly ``K`` points, execute only the rest, and
  print exactly the results an uninterrupted run prints.
* ``parent-kill-chaos`` — the same drill against the real integrity
  campaign: ``python -m repro.check --chaos M`` is killed mid-campaign
  and resumed with ``--resume`` under ``REPRO_OBS=1``; its stdout and
  its run manifest must be **byte-identical** to an uninterrupted
  reference run's, and the journal must be cleared after the clean
  finish.

Every trap is seeded: instance ``i`` runs scenario ``i mod 3`` with
seed ``base_seed + i``, and the trap position / kill point ``K`` are
pure arithmetic on that seed — a failing ``seed=... scenario=...``
line replays exactly.  First attempts communicate with retries through
marker files in a scenario-private temporary directory, which is what
makes "fail once, succeed on retry" deterministic across processes.

The campaign returns its exit status plus a **recovery summary** — the
supervision counters it measured (deaths and retries) and the resume
accounting of each completing run (points resumed / executed / cached
/ total).  The summary is deterministic given
``(n, base_seed)``; ``python -m repro.check --crash`` embeds it as the
``recovery`` section of its run manifest, where
``python -m repro.obs.report`` checks the recovery invariants.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..flags import override
from ..obs import metrics

#: Points per in-process supervised sweep (worker-death).
SWEEP_POINTS = 4

#: Points per parent-kill subprocess sweep.
CHILD_POINTS = 6

#: Chaos jobs per parent-kill chaos drill (small: three full campaign
#: executions per instance ride under the CI crash step's ceiling).
CHAOS_JOBS = 4

#: Counter keys of the recovery summary (manifest ``recovery`` section).
RECOVERY_KEYS = ("worker_deaths", "point_retries", "points_total",
                 "points_resumed", "points_executed", "points_cached")


def steady_point(index: int, base_seed: int) -> List[int]:
    """A well-behaved sweep point: a deterministic, JSON-round-trippable
    payload (pure arithmetic on the inputs, so every process — first
    run, retry, resume, reference — computes identical bytes)."""
    return [index, (base_seed * 31 + index * 7) % 997]


def flaky_point(index: int, base_seed: int, marker_dir: str) -> List[int]:
    """A trap point: the first attempt dies, every retry succeeds.

    The first execution drops a marker file, then SIGKILLs its own
    worker process (indistinguishable from the OOM killer to the
    parent).  A retry sees the marker and returns :func:`steady_point`'s
    value — so the recovered sweep's results are exactly the
    undisturbed ones.
    """
    marker = Path(marker_dir) / f"trap-{index}.attempted"
    if not marker.exists():
        marker.write_text("first attempt\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return steady_point(index, base_seed)


def _child_env() -> Dict[str, str]:
    """Environment for drill subprocesses: the running package on
    ``PYTHONPATH``, and no inherited crash hook."""
    src_dir = str(Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (f"{src_dir}{os.pathsep}{existing}"
                         if existing else src_dir)
    env.pop("REPRO_JOURNAL_DIE_AFTER", None)
    return env


def _fold_counters(recovery: Dict[str, int], counters: Dict[str, float]
                   ) -> None:
    """Add one sweep's ``parallel.*`` supervision counters into the
    campaign's recovery summary."""
    for key in RECOVERY_KEYS:
        recovery[key] += int(counters.get(f"parallel.{key}", 0))


def _scenario_worker_death(seed: int,
                           recovery: Dict[str, int]) -> Optional[str]:
    """Scenario 0: a worker SIGKILLed mid-point is detected and the
    point re-executed — results undisturbed, exactly one death+retry."""
    from ..parallel import SweepPoint, run_sweep

    trap = seed % SWEEP_POINTS
    expected = [steady_point(i, seed) for i in range(SWEEP_POINTS)]
    with tempfile.TemporaryDirectory() as marker_dir:
        points = []
        for i in range(SWEEP_POINTS):
            if i == trap:
                points.append(SweepPoint.make(
                    "repro.check.crash:flaky_point", label=f"trap#{i}",
                    index=i, base_seed=seed, marker_dir=marker_dir))
            else:
                points.append(SweepPoint.make(
                    "repro.check.crash:steady_point", label=f"ok#{i}",
                    index=i, base_seed=seed))
        # A fresh registry scopes this sweep's supervision counters so
        # the campaign can assert them exactly (restored on exit).
        with override(obs=True):
            results = run_sweep(points, jobs=2)
            registry = metrics.current()
            counters = dict(registry.counters) if registry else {}
    if results != expected:
        return f"recovered results diverge: {results} != {expected}"
    deaths = int(counters.get("parallel.worker_deaths", 0))
    retries = int(counters.get("parallel.point_retries", 0))
    if deaths != 1 or retries != 1:
        return (f"expected exactly 1 worker death and 1 retry, measured "
                f"{deaths} death(s), {retries} retry(ies)")
    _fold_counters(recovery, counters)
    return None


def _scenario_parent_kill_sweep(seed: int,
                                recovery: Dict[str, int]) -> Optional[str]:
    """Scenario 1: the sweep's *parent* is SIGKILLed after its K-th
    journal put; a rerun over the journal replays exactly K points
    and completes with identical results."""
    kill_after = 1 + seed % (CHILD_POINTS - 1)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps({
            "count": CHILD_POINTS, "base_seed": seed, "jobs": 2,
            "journal_root": str(Path(tmp) / "journal")}))
        cmd = [sys.executable, "-m", "repro.check.crashchild",
               str(spec_path)]
        env = _child_env()
        killed = subprocess.run(
            cmd, cwd=tmp, env={**env, "REPRO_JOURNAL_DIE_AFTER":
                               str(kill_after)},
            capture_output=True, text=True, timeout=120, check=False)
        if killed.returncode != -signal.SIGKILL:
            return (f"expected the first run to die by SIGKILL after "
                    f"{kill_after} journal write(s), got exit "
                    f"{killed.returncode}: {killed.stderr.strip()}")
        on_disk = len(sorted((Path(tmp) / "journal").rglob("*.pkl")))
        if on_disk != kill_after:
            return (f"journal left {on_disk} entr(ies) on disk, expected "
                    f"exactly {kill_after}")
        resumed = subprocess.run(cmd, cwd=tmp, env=env,
                                 capture_output=True, text=True,
                                 timeout=120, check=False)
        if resumed.returncode != 0:
            return (f"resume run failed with exit {resumed.returncode}: "
                    f"{resumed.stderr.strip()}")
        payload = json.loads(resumed.stdout)
        expected = [steady_point(i, seed) for i in range(CHILD_POINTS)]
        if payload["results"] != expected:
            return (f"resumed results diverge: {payload['results']} != "
                    f"{expected}")
        if payload["replays"] != kill_after:
            return (f"resume replayed {payload['replays']} point(s), "
                    f"expected exactly {kill_after}")
        if payload["records"] != CHILD_POINTS - kill_after:
            return (f"resume executed {payload['records']} point(s), "
                    f"expected exactly {CHILD_POINTS - kill_after}")
    recovery["points_total"] += CHILD_POINTS
    recovery["points_resumed"] += kill_after
    recovery["points_executed"] += CHILD_POINTS - kill_after
    return None


def _scenario_parent_kill_chaos(seed: int,
                                recovery: Dict[str, int]) -> Optional[str]:
    """Scenario 2: ``--chaos`` killed mid-campaign and ``--resume``d;
    stdout and run manifest must be byte-identical to an uninterrupted
    reference, and the journal cleared after the clean finish."""
    kill_after = 1 + seed % (CHAOS_JOBS - 1)
    cmd = [sys.executable, "-m", "repro.check", "--chaos",
           str(CHAOS_JOBS), "--chaos-seed", str(seed), "--jobs", "1"]
    env = _child_env()
    env["REPRO_OBS"] = "1"
    with tempfile.TemporaryDirectory() as ref_dir, \
            tempfile.TemporaryDirectory() as run_dir:
        reference = subprocess.run(cmd, cwd=ref_dir, env=env,
                                   capture_output=True, timeout=300,
                                   check=False)
        if reference.returncode != 0:
            return (f"reference chaos run failed with exit "
                    f"{reference.returncode}: "
                    f"{reference.stderr.decode().strip()}")
        killed = subprocess.run(
            cmd, cwd=run_dir,
            env={**env, "REPRO_JOURNAL_DIE_AFTER": str(kill_after)},
            capture_output=True, timeout=300, check=False)
        if killed.returncode != -signal.SIGKILL:
            return (f"expected the chaos run to die by SIGKILL after "
                    f"{kill_after} journal write(s), got exit "
                    f"{killed.returncode}: "
                    f"{killed.stderr.decode().strip()}")
        resumed = subprocess.run(cmd + ["--resume"], cwd=run_dir, env=env,
                                 capture_output=True, timeout=300,
                                 check=False)
        if resumed.returncode != 0:
            return (f"chaos resume failed with exit {resumed.returncode}: "
                    f"{resumed.stderr.decode().strip()}")
        if resumed.stdout != reference.stdout:
            return ("resumed chaos stdout is not byte-identical to the "
                    "uninterrupted reference run's")
        ref_manifest = Path(ref_dir) / "results" / "chaos" / "manifest.json"
        run_manifest = Path(run_dir) / "results" / "chaos" / "manifest.json"
        if ref_manifest.read_bytes() != run_manifest.read_bytes():
            return ("resumed chaos manifest is not byte-identical to the "
                    "uninterrupted reference run's")
        journal_dir = (Path(run_dir) / "results" / ".journals" /
                       f"chaos-n{CHAOS_JOBS}-seed{seed}")
        if journal_dir.exists():
            return (f"journal {journal_dir.name} survived a clean finish "
                    f"(should be cleared)")
    recovery["points_total"] += CHAOS_JOBS
    recovery["points_resumed"] += kill_after
    recovery["points_executed"] += CHAOS_JOBS - kill_after
    return None


def _scenario_table() -> Tuple[Tuple[str, Callable[[int, Dict[str, int]],
                                                   Optional[str]]], ...]:
    """``(name, body)`` per scenario, cycled by instance index."""
    return (("worker-death", _scenario_worker_death),
            ("parent-kill-sweep", _scenario_parent_kill_sweep),
            ("parent-kill-chaos", _scenario_parent_kill_chaos))


def run_campaign(n: int, base_seed: int = 0, quiet: bool = False
                 ) -> Tuple[int, Dict[str, int]]:
    """Run ``n`` crash-drill instances; returns ``(exit status,
    recovery summary)``.

    Instance ``i`` runs scenario ``i mod 3`` under seed
    ``base_seed + i`` — every scenario is exercised once per 3
    instances, each cycle under fresh seeds (fresh trap positions and
    kill points).  Failures name the seed and scenario for exact
    replay.  The recovery summary (:data:`RECOVERY_KEYS`) is
    deterministic given ``(n, base_seed)`` — the CLI embeds it in the
    crash run's manifest.
    """
    scenarios = _scenario_table()
    recovery = {key: 0 for key in RECOVERY_KEYS}
    failures: List[str] = []
    for i in range(n):
        name, body = scenarios[i % len(scenarios)]
        seed = base_seed + i
        label = f"seed={seed} scenario={name}"
        try:
            failure = body(seed, recovery)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            failures.append(f"{label}: {failure}")
        elif not quiet:
            print(f"repro.check crash: {label} ok")
    if failures:
        for failure in failures:
            print(f"repro.check crash FAILED: {failure}", file=sys.stderr)
        return 1, recovery
    if not quiet:
        print(f"repro.check crash: {n} drill(s), all recovered "
              f"bit-identically")
    return 0, recovery
