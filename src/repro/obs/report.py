"""Rendering and cross-checking run manifests (``python -m repro.report``).

Takes one or two manifest files written by the experiments/check CLIs
(see :mod:`repro.obs.manifest`) and renders markdown tables that read
equally well in a terminal: bytes by layer, cache efficiency, fault
recovery, simulated wall, and any histograms.  Given two manifests it
additionally renders a metric-by-metric diff (the intended workflow
for perf/robustness PRs: diff the manifest before and after a change
instead of rerunning both).

Every invocation also cross-checks the manifest invariants:

* ``io.shuffle_bytes == io.shuffle_bytes_measured`` — the closed-form
  shuffle wire accounting of :mod:`repro.io.twophase` must match the
  observed recursive :func:`repro.mpi.wire.wire_size` sums exactly;
  the same closed-vs-measured check applies independently to the
  node-locality split (``io.intranode_bytes`` / ``io.internode_bytes``,
  recorded whenever shuffle bytes are), and the two split terms must
  sum back to the shuffle total — so a two-level run can never
  satisfy the totals by mis-attributing a hop's locality;
* with integrity metrics present, every injected corruption was
  detected (``faults.inject:*-corrupt == faults.detect:*-corrupt``),
  nothing reached the reduce-time provenance check, and detections
  were accompanied by recovery;
* the stored ledger summary equals the one derived from the
  ``faults.*`` counters;
* a ``recovery`` section, when present (crash-campaign manifests),
  satisfies the supervised-sweep accounting invariants: every count
  non-negative, ``point_retries >= worker_deaths``, and
  ``points_resumed + points_executed + points_cached ==
  points_total``.

Exit status: 0 clean, 1 invariant violation, 2 usage/load error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .manifest import ledger_summary, load_manifest


def _fmt(value: Any) -> str:
    """Numbers without float noise; everything else via str."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           title: str) -> str:
    """One markdown table (pipe syntax renders fine in a terminal)."""
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _counters(manifest: Dict[str, Any]) -> Dict[str, float]:
    return manifest.get("metrics", {}).get("counters", {})


# -- invariants -------------------------------------------------------------

def check_invariants(manifest: Dict[str, Any], origin: str = "manifest"
                     ) -> List[str]:
    """Violation messages for one manifest (empty = clean)."""
    violations: List[str] = []
    counters = _counters(manifest)

    for base in ("io.shuffle_bytes", "io.intranode_bytes",
                 "io.internode_bytes"):
        closed = counters.get(base)
        measured = counters.get(f"{base}_measured")
        if closed is not None and measured is not None and closed != measured:
            violations.append(
                f"{origin}: shuffle wire accounting drifted — closed form "
                f"{base}={_fmt(closed)} != observed "
                f"{base}_measured={_fmt(measured)}")
    total = counters.get("io.shuffle_bytes")
    intra = counters.get("io.intranode_bytes", 0)
    inter = counters.get("io.internode_bytes", 0)
    if total is not None and (intra or inter) and intra + inter != total:
        violations.append(
            f"{origin}: shuffle locality split drifted — "
            f"io.intranode_bytes={_fmt(intra)} + "
            f"io.internode_bytes={_fmt(inter)} != "
            f"io.shuffle_bytes={_fmt(total)}")

    integrity_on = any(n.startswith("integrity.") for n in counters)
    if integrity_on:
        for kind in ("ost", "msg"):
            injected = counters.get(f"faults.inject:{kind}-corrupt", 0)
            detected = counters.get(f"faults.detect:{kind}-corrupt", 0)
            if injected != detected:
                violations.append(
                    f"{origin}: {kind} corruption slipped through — "
                    f"{_fmt(injected)} injected but {_fmt(detected)} "
                    f"detected")
        partial = counters.get("faults.detect:partial-corrupt", 0)
        if partial:
            violations.append(
                f"{origin}: {_fmt(partial)} corruption(s) reached the "
                f"reduce-time provenance check (the wire check should "
                f"have repaired them)")
        detected_total = sum(v for n, v in counters.items()
                             if n.startswith("faults.detect:"))
        recovered_total = sum(v for n, v in counters.items()
                              if n.startswith("faults.recover:"))
        if detected_total and not recovered_total:
            violations.append(
                f"{origin}: {_fmt(detected_total)} detection(s) but no "
                f"recover:* record — repair was skipped")

    stored = manifest.get("ledger", {})
    derived = ledger_summary(manifest.get("metrics", {}))
    if stored and stored != derived:
        violations.append(
            f"{origin}: stored ledger summary {stored} does not match "
            f"the one derived from the faults.* counters {derived}")

    recovery = manifest.get("recovery")
    if recovery is not None:
        violations.extend(check_recovery(recovery, origin))
    return violations


def check_recovery(recovery: Dict[str, Any], origin: str = "manifest"
                   ) -> List[str]:
    """Violation messages for one ``recovery`` section (empty = clean).

    The invariants of supervised-sweep recovery accounting:

    * every count is non-negative;
    * every worker death was retried (or surfaced as a hard failure,
      which never produces a manifest): ``point_retries >=
      worker_deaths``;
    * recovery never invents or loses work: ``points_resumed +
      points_executed + points_cached == points_total``.
    """
    violations: List[str] = []
    for key, value in sorted(recovery.items()):
        if isinstance(value, (int, float)) and value < 0:
            violations.append(
                f"{origin}: recovery count {key} is negative "
                f"({_fmt(value)})")
    deaths = recovery.get("worker_deaths", 0)
    retries = recovery.get("point_retries", 0)
    if retries < deaths:
        violations.append(
            f"{origin}: {_fmt(deaths)} worker death(s) but only "
            f"{_fmt(retries)} retry(ies) — a death went unretried")
    total = recovery.get("points_total", 0)
    accounted = (recovery.get("points_resumed", 0)
                 + recovery.get("points_executed", 0)
                 + recovery.get("points_cached", 0))
    if accounted != total:
        violations.append(
            f"{origin}: resumed + executed + cached = {_fmt(accounted)} "
            f"does not equal points_total = {_fmt(total)} — recovery "
            f"lost or invented work")
    return violations


# -- single-run rendering ---------------------------------------------------

_BYTE_ROWS = (
    ("pfs.ost.bytes", "pfs", "bytes served by OSTs"),
    ("mpi.wire_bytes", "mpi", "payload bytes on the wire"),
    ("io.shuffle_bytes", "io", "shuffle bytes (closed form)"),
    ("io.shuffle_bytes_measured", "io", "shuffle bytes (observed)"),
    ("io.intranode_bytes", "io", "shuffle bytes staying on-node"),
    ("io.internode_bytes", "io", "shuffle bytes crossing nodes"),
)


def render_manifest(manifest: Dict[str, Any]) -> str:
    """The full markdown report for one manifest."""
    counters = _counters(manifest)
    gauges = manifest.get("metrics", {}).get("gauges", {})
    hists = manifest.get("metrics", {}).get("histograms", {})
    parts: List[str] = []

    flags = manifest.get("flags", {})
    flag_text = ", ".join(f"{k}={v}" for k, v in sorted(flags.items()))
    config = manifest.get("config", {})
    config_text = (", ".join(f"{k}={v}" for k, v in sorted(config.items()))
                   or "(none)")
    parts.append("\n".join([
        f"## Run `{manifest.get('run', '?')}`",
        "",
        f"* code digest: `{manifest.get('code_digest', '?')[:16]}`",
        f"* flags: {flag_text}",
        f"* config: {config_text}",
    ]))

    byte_rows = [(layer, note, _fmt(counters[name]))
                 for name, layer, note in _BYTE_ROWS if name in counters]
    if byte_rows:
        parts.append(_table(("layer", "metric", "bytes"), byte_rows,
                            "Bytes by layer"))

    cache_rows: List[Tuple[str, str]] = []
    reuses = counters.get("io.plan_reuses")
    exchanges = counters.get("io.plan_exchanges")
    if reuses is not None or exchanges is not None:
        reuses, exchanges = reuses or 0, exchanges or 0
        total = reuses + exchanges
        ratio = f"{reuses / total:.0%}" if total else "n/a"
        cache_rows += [("plan exchanges (full offset allgather)",
                        _fmt(exchanges)),
                       ("plan reuses (translated, no exchange)",
                        _fmt(reuses)),
                       ("plan reuse ratio", ratio)]
    for name in sorted(counters):
        if name.startswith("pfs.blockcache."):
            cache_rows.append((name, _fmt(counters[name])))
    if cache_rows:
        parts.append(_table(("cache metric", "value"), cache_rows,
                            "Cache efficiency"))

    ledger = manifest.get("ledger") or ledger_summary(
        manifest.get("metrics", {}))
    fault_rows = [("injected (inject:*)", _fmt(ledger.get("injected", 0))),
                  ("detected (detect:*)", _fmt(ledger.get("detected", 0))),
                  ("recovered (recover:*)", _fmt(ledger.get("recovered", 0)))]
    fault_rows += [(name, _fmt(counters[name]))
                   for name in sorted(counters)
                   if name.startswith("faults.")]
    if any(v != "0" for _k, v in fault_rows):
        parts.append(_table(("fault ledger", "count"), fault_rows,
                            "Fault recovery"))

    recovery = manifest.get("recovery")
    if recovery:
        rows = [(key, _fmt(value)) for key, value in sorted(recovery.items())]
        parts.append(_table(("recovery count", "value"), rows,
                            "Supervised-sweep recovery"))

    wall_rows = [(name, _fmt(counters[name])) for name in sorted(counters)
                 if name.startswith("sim.")]
    wall_rows += [(name, _fmt(gauges[name])) for name in sorted(gauges)]
    if wall_rows:
        parts.append(_table(("metric", "value"), wall_rows,
                            "Simulated wall & events"))

    for name in sorted(hists):
        edges, counts = hists[name]["edges"], hists[name]["counts"]
        labels = [f"<= {_fmt(e)}" for e in edges] + [f"> {_fmt(edges[-1])}"]
        rows = [(label, count) for label, count in zip(labels, counts)]
        parts.append(_table(("bucket", "samples"), rows,
                            f"Histogram `{name}`"))

    return "\n\n".join(parts)


# -- diff rendering ---------------------------------------------------------

def render_diff(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Metric-by-metric diff of two manifests (counters and gauges)."""
    parts: List[str] = [f"## Diff `{a.get('run', '?')}` -> "
                        f"`{b.get('run', '?')}`"]
    if a.get("code_digest") != b.get("code_digest"):
        parts.append("Note: the two runs were produced by different "
                     "code versions (digests differ).")
    for section in ("counters", "gauges"):
        va = a.get("metrics", {}).get(section, {})
        vb = b.get("metrics", {}).get(section, {})
        names = sorted(set(va) | set(vb))
        rows = []
        for name in names:
            x, y = va.get(name, 0), vb.get(name, 0)
            if x == y:
                continue
            rows.append((name, _fmt(x), _fmt(y), _fmt(y - x)))
        if rows:
            parts.append(_table((section[:-1], "a", "b", "delta"), rows,
                                f"Changed {section}"))
    if len(parts) == 1:
        parts.append("No metric differences.")
    return "\n\n".join(parts)


# -- CLI --------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Render run manifests written under REPRO_OBS=1 and "
                    "cross-check their invariants (two manifests: also "
                    "render a diff)",
    )
    parser.add_argument("manifests", nargs="+", type=Path,
                        metavar="MANIFEST",
                        help="path(s) to results/<run>/manifest.json")
    parser.add_argument("--no-render", action="store_true",
                        help="only run the invariant cross-checks")
    args = parser.parse_args(argv)

    loaded: List[Tuple[Path, Dict[str, Any]]] = []
    for path in args.manifests:
        try:
            loaded.append((path, load_manifest(path)))
        except (OSError, ValueError) as exc:
            print(f"repro.report: {exc}", file=sys.stderr)
            return 2

    violations: List[str] = []
    for path, manifest in loaded:
        violations.extend(check_invariants(manifest, origin=str(path)))

    if not args.no_render:
        blocks = [render_manifest(m) for _p, m in loaded]
        if len(loaded) == 2:
            blocks.append(render_diff(loaded[0][1], loaded[1][1]))
        print("\n\n".join(blocks))
        print()
    if violations:
        for violation in violations:
            print(f"repro.report INVARIANT VIOLATION: {violation}",
                  file=sys.stderr)
        return 1
    print(f"repro.report: {len(loaded)} manifest(s), all invariants hold")
    return 0
