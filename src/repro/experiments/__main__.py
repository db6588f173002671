"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments fig9       # run one
    python -m repro.experiments all        # run everything
"""

from __future__ import annotations

import argparse
import sys
import time

from . import registry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures "
                    "(scaled; see EXPERIMENTS.md)",
    )
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment id (e.g. fig9) or 'all'")
    parser.add_argument("--plot", action="store_true",
                        help="render an ASCII approximation of the figure")
    parser.add_argument("--csv", action="store_true",
                        help="print the result rows as CSV instead")
    parser.add_argument("--outdir", default=None, metavar="DIR",
                        help="also write <id>.txt and <id>.csv per "
                             "experiment into DIR")
    parser.add_argument("--check", action="store_true",
                        help="run under the repro.check runtime sanitizers "
                             "(collective protocol + plan invariants); "
                             "slower, results identical")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan independent sweep points out over N "
                             "worker processes (0 = one per core); "
                             "results are bit-identical to --jobs 1")
    parser.add_argument("--quick", action="store_true",
                        help="run each experiment's smaller QUICK_KWARGS "
                             "configuration (same sweep, fewer/scaled "
                             "points)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk point cache "
                             "(results/.pointcache/)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="drop every cached sweep point, then proceed")
    parser.add_argument("--obs", action="store_true",
                        help="enable the metrics registry (same as "
                             "REPRO_OBS=1) and write a run manifest "
                             "results/<id>/manifest.json per experiment")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted run from its run "
                             "journal (results/.journals/<id>/): "
                             "completed sweep points are replayed, not "
                             "re-simulated; output stays byte-identical")
    args = parser.parse_args(argv)
    from .. import flags
    from ..errors import SweepInterrupted
    from ..obs import metrics
    from ..parallel import PointCache, journal_root
    # One override around each run and its manifest; a CLI flag only
    # adds to what the environment asks for.
    switches = {name: True for name, on in (("check", args.check),
                                            ("obs", args.obs)) if on}
    cache = None if args.no_cache else PointCache()
    if args.clear_cache:
        # Clear through the run's own cache object so the counters the
        # cache note reports include the clear, and report the state
        # *after* clearing (the old code printed a fresh instance's
        # stats, which read "0 hit / 0 miss" whatever happened).
        clearer = cache if cache is not None else PointCache()
        removed = clearer.clear()
        print(f"point cache: cleared {removed} entries, "
              f"{clearer.entry_count()} on disk, stats {clearer.stats()}")
    if args.experiment is None:
        print("Available experiments:")
        for name in registry.names():
            print(f"  {name}")
        return 0
    targets = registry.names() if args.experiment == "all" else [args.experiment]
    outdir = None
    if args.outdir:
        import pathlib
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    def resume_command(name: str) -> str:
        parts = ["python -m repro.experiments", name]
        for flag, on in (("--quick", args.quick), ("--check", args.check),
                         ("--obs", args.obs), ("--no-cache", args.no_cache)):
            if on:
                parts.append(flag)
        if args.jobs != 1:
            parts.append(f"--jobs {args.jobs}")
        parts.append("--resume")
        return " ".join(parts)

    for name in targets:
        t0 = time.time()  # repro: allow[wallclock] — host-side progress report
        if cache is not None:
            cache.hits = cache.misses = cache.evictions = 0
        # One crash-consistent journal per experiment id: a fresh run
        # starts it empty, --resume replays whatever a killed or
        # interrupted run left behind, and a clean finish clears it.
        journal = PointCache(journal_root(name), max_entries=None)
        if not args.resume:
            journal.clear()
        elif journal.entry_count():
            # Resume notes go to stderr: a resumed run's stdout is
            # byte-identical to an uninterrupted run's.
            print(f"[{name}: resuming, {journal.entry_count()} journaled "
                  f"point(s)]", file=sys.stderr)
        with flags.override(**switches) as record:
            metrics.reset()
            try:
                result = registry.run(name, quick=args.quick,
                                      jobs=args.jobs, cache=cache,
                                      journal=journal)
            except SweepInterrupted as exc:
                print(f"[{name}] {exc}", file=sys.stderr)
                print(f"  resume with: {resume_command(name)}",
                      file=sys.stderr)
                return 130
            if args.csv:
                print(result.to_csv())
            else:
                print(result.render(plot=args.plot))
            if outdir is not None:
                (outdir / f"{name}.txt").write_text(
                    result.render(plot=True) + "\n")
                (outdir / f"{name}.csv").write_text(result.to_csv() + "\n")
            if record.obs:
                from ..obs.manifest import write_manifest
                mpath = write_manifest(name, config={
                    "experiment": name, "quick": bool(args.quick),
                    "check": bool(args.check)})
                print(f"run manifest: {mpath}")
        journal.clear()
        # The note renders in every mode — serial, pooled, or with the
        # cache disabled — so run logs always say what the cache did.
        cache_note = (f", point cache {cache.stats()}"
                      if cache is not None else ", point cache disabled")
        print(f"\n[{name} regenerated in {time.time() - t0:.1f}s "  # repro: allow[wallclock]
              f"wall{cache_note}]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
