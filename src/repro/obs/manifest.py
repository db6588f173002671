"""Run manifests: one JSON artifact describing one observed run.

A manifest is the durable record a CLI writes after a run executed
with ``REPRO_OBS`` on: the run's identity and configuration, the
:class:`~repro.flags.Flags` record in force for the run, the library
code digest (reused from
:func:`repro.parallel.pointcache.code_digest`), the deterministic
metric snapshot, and a summary of the fault/integrity ledger derived
from the ``faults.*`` counters.  ``python -m repro.report`` consumes
these files.

Byte-identity contract: a manifest contains **no timestamps, no host
state and no volatile metrics**, and serializes with sorted keys and a
fixed layout — so the manifest of a ``--jobs 4`` run is byte-identical
to the ``--jobs 1`` manifest of the same configuration, and a
warm-cache rerun reproduces the cold-run manifest exactly (cached
sweep points replay their stored metric snapshots).

Schema (``"schema": 1``)::

    {
      "schema": 1,
      "run": "<run id, e.g. fig10 or chaos>",
      "config": {...},            # run parameters (never jobs/cache)
      "flags": {"check": bool, "obs": bool, "shake": int|null},
                                  # the Flags record in force
      "code_digest": "<sha256 of every repro/**/*.py>",
      "metrics": {"counters": {...}, "gauges": {...},
                   "histograms": {...}},
      "ledger": {"injected": int, "detected": int, "recovered": int},
      "recovery": {"worker_deaths": int, ...}   # optional; crash runs
    }

The optional ``recovery`` section summarizes supervised-sweep recovery
(deaths, retries, resumed/executed/cached points).
Only the crash campaign — whose kill plan is seeded, making the
summary deterministic — embeds it; ordinary figure/chaos manifests
never do, which is what keeps a crashed-and-resumed run's manifest
byte-identical to an uninterrupted one's.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional

from .. import flags
from . import metrics

#: Manifest schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: Default directory manifests are written under: ``results/<run>/``.
DEFAULT_ROOT = Path("results")


def ledger_summary(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Fault-ledger tallies derived from the ``faults.*`` counters.

    Every :meth:`repro.faults.FaultInjector.record` call (and the
    integrity manager's fallback log) increments a
    ``faults.<namespaced kind>`` counter, so the ledger summary is a
    pure projection of the metric snapshot.
    """
    totals = {"injected": 0, "detected": 0, "recovered": 0}
    for name, value in snapshot.get("counters", {}).items():
        if name.startswith("faults.inject:"):
            totals["injected"] += int(value)
        elif name.startswith("faults.detect:"):
            totals["detected"] += int(value)
        elif name.startswith("faults.recover:"):
            totals["recovered"] += int(value)
    return totals


def build_manifest(run: str, config: Optional[Dict[str, Any]] = None,
                   registry: Optional[metrics.MetricsRegistry] = None,
                   recovery: Optional[Dict[str, int]] = None
                   ) -> Dict[str, Any]:
    """Assemble the manifest dict for ``run`` from the live registry.

    ``registry`` defaults to the process registry
    (:func:`repro.obs.metrics.current`); building a manifest with
    observability off is a caller bug and raises.

    ``recovery``, when given, lands as an optional top-level section
    summarizing supervised-sweep recovery (worker deaths, retries,
    resumed/executed/cached point counts — see
    :data:`repro.check.crash.RECOVERY_KEYS`).  Only runs whose recovery
    accounting is itself deterministic embed it (the crash campaign's
    seeded kill plan); figure and chaos manifests never carry one, so
    a crashed-and-resumed run's manifest stays byte-identical to an
    uninterrupted run's.  ``python -m repro.obs.report`` checks the
    section's invariants when present.
    """
    registry = registry if registry is not None else metrics.current()
    if registry is None:
        raise ValueError(
            "cannot build a manifest with observability off "
            "(set REPRO_OBS=1 or enter repro.flags.override(obs=True))")
    from ..parallel.pointcache import code_digest

    snapshot = registry.snapshot()
    manifest = {
        "schema": SCHEMA_VERSION,
        "run": run,
        "config": dict(config or {}),
        "flags": asdict(flags.current()),
        "code_digest": code_digest(),
        "metrics": snapshot,
        "ledger": ledger_summary(snapshot),
    }
    if recovery is not None:
        manifest["recovery"] = {k: int(v) for k, v in
                                sorted(recovery.items())}
    return manifest


def manifest_json(manifest: Dict[str, Any]) -> str:
    """The canonical serialization: sorted keys, 2-space indent, one
    trailing newline — fixed so identical runs yield identical bytes."""
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def write_manifest(run: str, config: Optional[Dict[str, Any]] = None,
                   root: Path = DEFAULT_ROOT,
                   registry: Optional[metrics.MetricsRegistry] = None,
                   recovery: Optional[Dict[str, int]] = None) -> Path:
    """Build and write ``<root>/<run>/manifest.json``; returns the path."""
    manifest = build_manifest(run, config, registry, recovery=recovery)
    path = Path(root) / run / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest_json(manifest))
    return path


def load_manifest(path: Path) -> Dict[str, Any]:
    """Read one manifest back, validating the schema version."""
    with Path(path).open("r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or "schema" not in manifest:
        raise ValueError(f"{path}: not a run manifest (no schema field)")
    if manifest["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported manifest schema {manifest['schema']!r} "
            f"(this build reads schema {SCHEMA_VERSION})")
    return manifest
