#!/usr/bin/env python
"""Wall-clock tracker for the hot path (Figures 10 and 11, quick scale).

Runs two quick experiment configurations several times each and takes
the median wall time of each:

* ``fig10`` — weak scaling (``per_rank_mib=1.0, process_counts=(24,
  48, 120)``), every hot layer at once;
* ``fig11`` — the overhead analysis at P = 128/256
  (``total_mib_small=24.0``), where per-rank host work that grows with
  P (offset exchange, node placement) would dominate.

It maintains ``BENCH_paper.json`` at the repo root and exits non-zero
when either median regresses more than ``--threshold`` (default 25%)
over its recorded reference — the guard the CI benchmark job enforces.
It also records each configuration's ``sim.events`` (the kernel events
scheduled, from one extra untimed run with metrics on) and fails when a
count grows over its record: that gate is exact and free of noise, so
an event the model does not need cannot creep back in unnoticed.

Wall times on one machine drift a couple hundred milliseconds between
runs, hence the median-of-N.  The global block cache is cleared before
every repeat so each one pays the same (cold) generation cost — warm
repeats are faster but far noisier, cold repeats are stable within a
few milliseconds.  Repeats must produce bit-identical rows.  The
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
import json
import statistics
import sys
import time
from pathlib import Path

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


def measure(module, runs: int):
    """Median wall time over ``runs`` cold repeats of ``module``'s quick
    configuration + the (deterministic) result of the last repeat."""
    walls = []
    result = None
    rows = None
    for i in range(runs):
        if datasource.GLOBAL_BLOCK_CACHE is not None:
            datasource.GLOBAL_BLOCK_CACHE.clear()
        t0 = time.perf_counter()
        result = module.run(**module.QUICK_KWARGS)
        walls.append(time.perf_counter() - t0)
        this_rows = [list(map(repr, row)) for row in result.rows]
        if rows is not None and this_rows != rows:
            raise SystemExit(f"FAIL: {result.experiment_id} rows differ "
                             f"between repeats (determinism broken)")
        rows = this_rows
        print(f"  run {i + 1}/{runs}: {walls[-1]:.3f}s")
    return statistics.median(walls), walls, result


def ratchet(key: str, median: float, previous, args):
    """Gate ``median`` against the reference recorded under ``key``;
    returns ``(new reference, regressed)``.  The reference ratchets
    downward only (noise never inflates it); ``--update`` or a missing
    record rebases it to this measurement."""
    reference = (previous or {}).get(key, {}).get("reference_wall_s")
    regressed = False
    if reference is not None and not args.no_check:
        limit = reference * (1.0 + args.threshold)
        regressed = median > limit
        verdict = "REGRESSION" if regressed else "OK"
        print(f"  reference: {reference:.3f}s, limit {limit:.3f}s -> "
              f"{verdict}")
    if args.update or reference is None or median < reference:
        reference = median
    return reference, regressed


def count_events(module) -> int:
    """``sim.events`` of one untimed run of ``module``'s quick
    configuration with the metrics registry on (deterministic)."""
    with flags.override(obs=True):
        module.run(**module.QUICK_KWARGS)
        return metrics.current().counters["sim.events"]


def ratchet_events(key: str, events: int, previous, args):
    """Gate ``events`` against the count recorded under ``key``; returns
    ``(new record, grew)``.  Exact: any growth fails.  The record
    ratchets downward; ``--update`` or a missing record rebases it."""
    record = (previous or {}).get(key, {}).get("sim_events")
    grew = False
    if record is not None and not args.no_check:
        grew = events > record
        verdict = "REGRESSION" if grew else "OK"
        print(f"  sim.events: {events} (record {record}) -> {verdict}")
    if args.update or record is None or events < record:
        record = events
    return record, grew


def measure_parallel(jobs: int, serial_rows):
    """One parallel run of the same sweep: wall time + the bit-identity
    verdict vs the serial rows.  Informational only — the serial median
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
                    help="repeats for the median (default 3)")
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
    median, walls, result = measure(fig10_scalability, args.runs)
    print(f"  median: {median:.3f}s  (seed baseline {SEED_WALL_S:.2f}s, "
          f"{SEED_WALL_S / median:.2f}x)")
    reference, regressed = ratchet("fig10_quick", median, previous, args)
    events_record, events_grew = ratchet_events(
        "fig10_quick", count_events(fig10_scalability), previous, args)

    print(f"fig11 quick ({fig11_overhead.QUICK_KWARGS}), {args.runs} run(s):")
    median11, walls11, result11 = measure(fig11_overhead, args.runs)
    print(f"  median: {median11:.3f}s")
    reference11, regressed11 = ratchet("fig11_quick", median11, previous,
                                       args)
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
            "last_wall_s": round(median, 4),
            "last_runs": [round(w, 4) for w in walls],
            "speedup_vs_seed": round(SEED_WALL_S / median, 3),
            "sim_events": events_record,
        },
        "fig11_quick": {
            "experiment": "fig11_overhead.run",
            "quick_kwargs": fig11_overhead.QUICK_KWARGS,
            "reference_wall_s": round(reference11, 4),
            "last_wall_s": round(median11, 4),
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
        # Informational: the serial medians above stay the only gates.
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
    for key, med, bad in (("fig10_quick", median, regressed),
                          ("fig11_quick", median11, regressed11)):
        if bad and not args.update:
            print(f"FAIL: {key} median {med:.3f}s regressed more than "
                  f"{args.threshold:.0%} over reference")
            failed = True
    for key, grew in (("fig10_quick", events_grew),
                      ("fig11_quick", events_grew11)):
        if grew and not args.update:
            print(f"FAIL: {key} sim.events grew over its record")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
