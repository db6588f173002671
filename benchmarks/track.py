#!/usr/bin/env python
"""Wall-clock tracker for the hot path (Figures 10 and 11, quick scale).

Runs two quick experiment configurations several times each and takes
the mean wall time of each:

* ``fig10`` — weak scaling (``per_rank_mib=1.0, process_counts=(24,
  48, 120)``), every hot layer at once;
* ``fig11`` — the overhead analysis at P = 128/256
  (``total_mib_small=24.0``), where per-rank host work that grows with
  P (offset exchange, node placement) would dominate.

It maintains ``BENCH_paper.json`` at the repo root and exits non-zero
when either one regresses more than ``--threshold`` (default 25%) over
its recorded reference — the guard the CI benchmark job enforces.  The
gate compares the code, not the host: a fixed probe (:func:`probe`) is
timed before and after every repeat, and the gated number is the mean
wall over the mean probe, against the same ratio recorded with the
reference.  A host twice as slow doubles both.  Only ``--update`` moves
a recorded wall reference; a faster reading is reported, not adopted.
It also records each configuration's ``sim.events`` (the kernel events
scheduled, from one extra untimed run with metrics on) and fails when a
count grows over its record: that gate is exact and free of noise, so
an event the model does not need cannot creep back in unnoticed.

A shared host's speed switches between states about 1.6x apart that
last for seconds, so a short probe reads one state while a repeat spans
several.  Long probes and means over every probe and repeat of a run
track the mix the repeats saw: on a shared 2-vCPU container, 10 runs of
one tree spread the ratio by 1.16-1.17x (max over min), against
1.38-1.59x over 16 runs for medians of 20 ms probes, which a 25% gate
cannot tell from a regression.  The global block cache is cleared
before every repeat so each one pays the same (cold) generation cost —
warm repeats are faster but far noisier.  Repeats must produce
bit-identical rows.  The
simulated figures (speedups, cc_s) are deterministic and recorded
alongside as machine-independent ground truth.

Usage::

    PYTHONPATH=src python benchmarks/track.py             # measure + check
    PYTHONPATH=src python benchmarks/track.py --update    # rebase references
                                                          # and event counts
    PYTHONPATH=src python benchmarks/track.py --no-check  # measure only
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import flags  # noqa: E402
from repro.experiments import fig10_scalability, fig11_overhead  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.pfs import datasource  # noqa: E402

#: The fig10 quick configuration (also the parallel/cache probes').
QUICK_KWARGS = fig10_scalability.QUICK_KWARGS
#: Wall time of the growth seed (commit ca6b137) for the quick
#: configuration on the reference container — the "before" number.
SEED_WALL_S = 3.87

BENCH_PATH = REPO_ROOT / "BENCH_paper.json"

#: The probe's float32 buffer: 8,192 elements (32 KiB), so no array it
#: makes reaches the allocator's mmap threshold.
PROBE_ELEMENTS = 8192
#: Rounds of the probe's interpreter loop and of its ``sin`` passes:
#: about 0.2 s on a 2-vCPU Xeon container, so the probes of a run
#: sample the host for about a third as long as its repeats do.
PROBE_ROUNDS = 100_000
PROBE_PASSES = 4_000


def probe() -> float:
    """Wall seconds of a fixed computation that runs no ``repro`` code:
    interpreter work like the event kernel's (generator resumes, heap
    pushes and pops, dict stores), then float32 ``sin`` passes like
    field generation.  The heap a figure leaves behind cannot move it:
    every array it makes is at most 64 KiB, so the allocator serves it
    without new pages, and the garbage collector, whose passes walk
    every live object, is off while it runs."""
    def ticker(k: int):
        while True:
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF
            yield k

    gc.disable()
    try:
        t0 = time.perf_counter()
        tickers = [ticker(i) for i in range(64)]
        heap = []
        seen = {}
        for i in range(PROBE_ROUNDS):
            k = next(tickers[i & 63])
            heapq.heappush(heap, (k, i))
            seen[k & 4095] = i
            if len(heap) > 512:
                heapq.heappop(heap)
        phase = np.arange(PROBE_ELEMENTS, dtype=np.float32)
        out = np.empty_like(phase)
        for _ in range(PROBE_PASSES):
            np.multiply(phase, np.float32(1e-3), out=out)
            np.sin(out, out=out)
            out.sum(dtype=np.float64)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure(module, runs: int):
    """Mean wall time over ``runs`` cold repeats of ``module``'s quick
    configuration, the mean of the probes timed before and after each
    repeat, the walls, and the (deterministic) result of the last
    repeat."""
    walls = []
    probes = []
    result = None
    rows = None
    for i in range(runs):
        if datasource.GLOBAL_BLOCK_CACHE is not None:
            datasource.GLOBAL_BLOCK_CACHE.clear()
        probes.append(probe())
        t0 = time.perf_counter()
        result = module.run(**module.QUICK_KWARGS)
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
        this_rows = [list(map(repr, row)) for row in result.rows]
        if rows is not None and this_rows != rows:
            raise SystemExit(f"FAIL: {result.experiment_id} rows differ "
                             f"between repeats (determinism broken)")
        rows = this_rows
        print(f"  run {i + 1}/{runs}: {walls[-1]:.3f}s "
              f"(probes {probes[-2] * 1e3:.1f}/{probes[-1] * 1e3:.1f} ms)")
    return statistics.fmean(walls), statistics.fmean(probes), walls, result


def ratchet(key: str, wall: float, probe_s: float, previous, args):
    """Gate ``wall / probe_s`` against the ratio of the reference
    wall and probe recorded under ``key``; returns ``(new reference
    wall, new reference probe, regressed)``.  Only ``--update`` or a
    missing record moves the reference, rebasing it to this
    measurement: one low reading is host noise as often as a gain, and
    ratcheting down on it would tighten the gate toward a false
    failure."""
    record = (previous or {}).get(key, {})
    reference = record.get("reference_wall_s")
    reference_probe = record.get("reference_probe_s")
    ratio = wall / probe_s
    regressed = False
    if reference is None or reference_probe is None:
        reference = None
        print("  no reference wall and probe recorded: rebasing")
    elif not args.no_check:
        limit = reference / reference_probe * (1.0 + args.threshold)
        regressed = ratio > limit
        verdict = "REGRESSION" if regressed else "OK"
        print(f"  wall/probe {ratio:.2f} (probe {probe_s * 1e3:.1f} ms); "
              f"reference {reference:.3f}s / {reference_probe * 1e3:.1f} ms"
              f" = {reference / reference_probe:.2f}, limit {limit:.2f} "
              f"-> {verdict}")
    if args.update or reference is None:
        reference, reference_probe = wall, probe_s
    return reference, reference_probe, regressed


def count_events(module) -> int:
    """``sim.events`` of one untimed run of ``module``'s quick
    configuration with the metrics registry on (deterministic)."""
    with flags.override(obs=True):
        module.run(**module.QUICK_KWARGS)
        return metrics.current().counters["sim.events"]


def ratchet_events(key: str, events: int, previous, args):
    """Gate ``events`` against the count recorded under ``key``; returns
    ``(new record, grew)``.  Exact: any growth fails.  The record
    ratchets downward; ``--update`` or a missing record rebases it.
    The measured count is printed on every run, with the verdict only
    when it is gated."""
    record = (previous or {}).get(key, {}).get("sim_events")
    if record is None:
        print(f"  sim.events: {events} (no record: rebasing)")
        return events, False
    grew = False
    line = f"  sim.events: {events} (record {record})"
    if not args.no_check:
        grew = events > record
        line += f" -> {'REGRESSION' if grew else 'OK'}"
    print(line)
    if args.update or events < record:
        record = events
    return record, grew


def measure_parallel(jobs: int, serial_rows):
    """One parallel run of the same sweep: wall time + the bit-identity
    verdict vs the serial rows.  Informational only — the serial mean
    stays the regression gate (spawn start-up dominates on small boxes,
    so a wall threshold here would gate the host, not the code)."""
    if datasource.GLOBAL_BLOCK_CACHE is not None:
        datasource.GLOBAL_BLOCK_CACHE.clear()
    t0 = time.perf_counter()
    result = fig10_scalability.run(**QUICK_KWARGS, jobs=jobs)
    wall = time.perf_counter() - t0
    if result.rows != serial_rows:
        raise SystemExit(f"FAIL: fig10 rows differ between jobs=1 and "
                         f"jobs={jobs} (parallel merge broke bit-identity)")
    print(f"  parallel jobs={jobs}: {wall:.3f}s (rows identical to serial)")
    return wall


def measure_point_cache():
    """Cold vs warm wall time through a fresh on-disk point cache."""
    import tempfile

    from repro.parallel import PointCache

    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = PointCache(root=Path(tmp) / "pointcache")
        for label in ("cold", "warm"):
            if datasource.GLOBAL_BLOCK_CACHE is not None:
                datasource.GLOBAL_BLOCK_CACHE.clear()
            t0 = time.perf_counter()
            fig10_scalability.run(**QUICK_KWARGS, cache=cache)
            walls.append(time.perf_counter() - t0)
            print(f"  point cache {label}: {walls[-1]:.3f}s")
    return walls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3,
                    help="repeats for the mean (default 3)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed relative regression (default 0.25)")
    ap.add_argument("--update", action="store_true",
                    help="rebase both references to this measurement")
    ap.add_argument("--no-check", action="store_true",
                    help="measure and record, never fail")
    ap.add_argument("--parallel-jobs", type=int, default=2, metavar="N",
                    help="also record one jobs=N parallel run and the "
                         "cache cold/warm split (0 to skip; default 2)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error(f"--runs must be >= 1, got {args.runs}")

    previous = None
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())

    print(f"fig10 quick ({QUICK_KWARGS}), {args.runs} run(s):")
    wall, probe_s, walls, result = measure(fig10_scalability, args.runs)
    print(f"  mean: {wall:.3f}s  (seed baseline {SEED_WALL_S:.2f}s, "
          f"{SEED_WALL_S / wall:.2f}x)")
    reference, reference_probe, regressed = ratchet(
        "fig10_quick", wall, probe_s, previous, args)
    events_record, events_grew = ratchet_events(
        "fig10_quick", count_events(fig10_scalability), previous, args)

    print(f"fig11 quick ({fig11_overhead.QUICK_KWARGS}), {args.runs} run(s):")
    wall11, probe11, walls11, result11 = measure(fig11_overhead, args.runs)
    print(f"  mean: {wall11:.3f}s")
    reference11, reference_probe11, regressed11 = ratchet(
        "fig11_quick", wall11, probe11, previous, args)
    events_record11, events_grew11 = ratchet_events(
        "fig11_quick", count_events(fig11_overhead), previous, args)

    parallel_wall = None
    cache_walls = None
    if args.parallel_jobs > 0:
        parallel_wall = measure_parallel(args.parallel_jobs, result.rows)
        cache_walls = measure_point_cache()

    payload = {
        "experiment": "fig10_scalability.run",
        "quick_kwargs": QUICK_KWARGS,
        "fig10_quick": {
            "seed_wall_s": SEED_WALL_S,
            "reference_wall_s": round(reference, 4),
            "reference_probe_s": round(reference_probe, 6),
            "last_wall_s": round(wall, 4),
            "last_probe_s": round(probe_s, 6),
            "last_runs": [round(w, 4) for w in walls],
            "speedup_vs_seed": round(SEED_WALL_S / wall, 3),
            "sim_events": events_record,
        },
        "fig11_quick": {
            "experiment": "fig11_overhead.run",
            "quick_kwargs": fig11_overhead.QUICK_KWARGS,
            "reference_wall_s": round(reference11, 4),
            "reference_probe_s": round(reference_probe11, 6),
            "last_wall_s": round(wall11, 4),
            "last_probe_s": round(probe11, 6),
            "last_runs": [round(w, 4) for w in walls11],
            "sim_events": events_record11,
            "rows": [list(row) for row in result11.rows],
        },
        # Deterministic simulated numbers (machine-independent).
        "simulated": {
            "headers": result.headers,
            "rows": [list(row) for row in result.rows],
        },
    }
    if parallel_wall is not None:
        # Informational: the serial means above stay the only gates.
        payload["fig10_quick_parallel"] = {
            "jobs": args.parallel_jobs,
            "wall_s": round(parallel_wall, 4),
            "rows_identical_to_serial": True,
        }
    if cache_walls is not None:
        payload["fig10_quick_point_cache"] = {
            "cold_wall_s": round(cache_walls[0], 4),
            "warm_wall_s": round(cache_walls[1], 4),
        }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {BENCH_PATH.relative_to(REPO_ROOT)}")

    failed = False
    for key, mean, bad in (("fig10_quick", wall, regressed),
                           ("fig11_quick", wall11, regressed11)):
        if bad and not args.update:
            print(f"FAIL: {key} mean {mean:.3f}s per probe regressed "
                  f"more than {args.threshold:.0%} over reference")
            failed = True
    for key, grew in (("fig10_quick", events_grew),
                      ("fig11_quick", events_grew11)):
        if grew and not args.update:
            print(f"FAIL: {key} sim.events grew over its record")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
