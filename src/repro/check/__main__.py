"""``python -m repro.check`` — run the verification layer from the CLI.

Two stages, both on by default:

1. **Static**: the determinism lint over the given paths (default:
   ``src/repro`` and ``examples`` when run from the repo root, else the
   installed package directory).
2. **Runtime smoke**: the shared scenario list of
   :func:`repro.check.shake.scenarios` — a full collective battery,
   collective read + write, a CC reduction, and one *faulted*
   resilient run (seeded aggregator crashes) — each once with the
   ``check`` flag forced on, plus three smoke-only equality checks: an
   iterative sweep through :class:`~repro.core.plan_cache.PlanMemo`
   must reuse its plan, a two-level (node-aware) aggregation run must
   equal its one-level twin bit-for-bit, and the faulted run must
   equal a fault-free one — so the protocol verifier, the plan
   sanitizers, and the recovery-coverage check run against real
   schedules.

Three opt-in stages each replace both:

* ``--chaos [N]`` runs the end-to-end data-integrity campaign of
  :mod:`repro.check.chaos` — ``N`` seeded jobs sweeping corruption
  rates and scenarios, asserting bit-identical results, strict
  inject/detect matching, and a consistent fault ledger.  Failures
  name the offending ``seed=... scenario=...`` so any job replays
  exactly.
* ``--shake [K]`` runs the static lint and then the schedule battery
  of :mod:`repro.check.shake`: the same scenario list plus the chaos
  scenarios, each under the FIFO schedule and ``K`` (default 4)
  perturbed event schedules (``REPRO_SHAKE``), asserting bit-identical
  data results across schedules.
* ``--crash [N]`` runs the preemption campaign of
  :mod:`repro.check.crash` — ``N`` seeded drills that SIGKILL workers
  mid-point and murder whole sweep and chaos runs between journal
  writes, asserting that supervised retry and ``--resume`` recover
  every one bit-identically.

An interrupted or killed ``--chaos`` campaign leaves a run journal
behind; rerun it with ``--resume`` to replay the completed jobs and
finish with byte-identical output.  An option that only one mode reads
(``--chaos-seed``, ``--jobs``, ``--resume``, ``--crash-seed``,
``--shake-seed``) is a usage error without that mode, and so are the
lint's inputs (paths, ``--require-docstrings``) under ``--chaos``,
``--crash`` and ``--smoke-only``, which do not lint.

Exit status: 0 clean, 1 findings/sanitizer/campaign failure, 2 usage
error (130 when a campaign is interrupted by SIGINT/SIGTERM).

Usage::

    PYTHONPATH=src python -m repro.check            # lint + smoke
    python -m repro.check src/repro --static-only   # lint only
    python -m repro.check --static-only --require-docstrings src/repro
    python -m repro.check --chaos 25                # integrity campaign
    python -m repro.check --chaos 8 --chaos-seed 100
    python -m repro.check --chaos 25 --resume       # resume a killed campaign
    python -m repro.check --crash 8                 # preemption drills
    python -m repro.check --shake 4                 # schedule battery
    python -m repro.check --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import lint


def _default_paths() -> List[Path]:
    """``src/repro`` + ``examples`` from the repo root when present,
    falling back to wherever the package is installed."""
    cwd = Path.cwd()
    candidates = [cwd / "src" / "repro", cwd / "examples"]
    found = [p for p in candidates if p.is_dir()]
    if found:
        return found
    return [Path(__file__).resolve().parent.parent]


def _run_static(paths: Sequence[Path], quiet: bool,
                require_docstrings: bool = False) -> int:
    files = lint.iter_python_files(paths)
    if not files:
        print(f"repro.check: no Python files under "
              f"{', '.join(map(str, paths))}", file=sys.stderr)
        return 2
    config = lint.LintConfig(require_docstrings=require_docstrings)
    findings = lint.lint_paths(paths, config)
    for finding in findings:
        print(finding.format())
    if not quiet:
        status = f"{len(findings)} finding(s)" if findings else "clean"
        print(f"repro.check lint: {len(files)} file(s), {status}")
    return 1 if findings else 0


def _run_smoke(quiet: bool) -> int:
    """Drive the runtime sanitizers over real schedules: the shared
    scenario list (:func:`repro.check.shake.scenarios`) once each under
    ``override(check=True)``, then the smoke-only equality checks."""
    import numpy as np

    from ..core import ObjectIO, SUM_OP, object_get
    from ..core.plan_cache import PlanMemo
    from ..dataspace import DatasetSpec, Subarray, block_partition
    from ..flags import override
    from ..io import AccessRequest, collective_read, collective_write
    from ..mpi import mpi_run
    from ..pfs import ArraySource
    from . import shake

    nprocs = shake.NPROCS
    failures: List[str] = []
    outputs: Dict[str, Any] = {}

    def smoke_plan_memo():
        machine = shake.machine()
        spec = DatasetSpec((12, 8, 8), np.float64, name="sweep")
        file = machine.fs.create_procedural_file("sweep.nc", spec.n_elements)
        parts = block_partition(Subarray((0, 0, 0), (4, 8, 8)),
                                nprocs, axis=1)
        memos = [PlanMemo() for _ in range(nprocs)]

        def body(ctx):
            total = 0.0
            base = parts[ctx.rank]
            for step in range(3):
                sub = Subarray((base.start[0] + step * 4,) + base.start[1:],
                               base.count)
                oio = ObjectIO(spec, sub, SUM_OP)
                result = yield from object_get(ctx, file, oio,
                                               plan_memo=memos[ctx.rank])
                if result.global_result is not None:  # root rank only
                    total += float(result.global_result)
            return total
        mpi_run(machine, nprocs, body)
        if any(m.reuses == 0 for m in memos):
            raise AssertionError("PlanMemo never reused a translated plan")

    def smoke_two_level():
        """Two-level (node-aware) aggregation equals one-level exactly,
        for the raw two-phase read/write and the CC reduction, with the
        leader sub-collective and shuffle wire-size checks forced on."""
        from ..core import MAXLOC_OP
        from ..io import CollectiveHints

        spec, parts = shake.dataset()

        def run(two_level):
            machine = shake.machine()
            file = machine.fs.create_procedural_file("smoke.nc",
                                                     spec.n_elements)
            hints = CollectiveHints(cb_buffer_size=1024,
                                    two_level=two_level)
            out = machine.fs.create_file(
                "smoke_out.nc",
                ArraySource(np.zeros(spec.n_elements, dtype=spec.dtype)))

            def body(ctx):
                request = AccessRequest.from_subarray(spec, parts[ctx.rank])
                buf = yield from collective_read(ctx, file, request,
                                                 hints=hints)
                data = np.asarray(request.as_array(buf))
                yield from collective_write(ctx, out, request, data,
                                            hints=hints)
                oio = ObjectIO(spec, parts[ctx.rank], MAXLOC_OP,
                               hints=hints)
                result = yield from object_get(ctx, file, oio)
                return float(data.sum()), result.global_result
            return mpi_run(machine, nprocs, body), out.source._bytes.copy()

        one, bytes_one = run(False)
        two, bytes_two = run(True)
        if one != two:
            raise AssertionError(
                f"two-level results diverge from one-level: {two} != {one}")
        if not np.array_equal(bytes_one, bytes_two):
            raise AssertionError(
                "two-level collective_write produced different file bytes")

    def smoke_faulted_equals_healthy():
        healthy = shake.sum_job(faulted=False)
        faulted = outputs.get("faulted resilient object_get")
        if faulted != healthy:
            raise AssertionError(
                f"recovered results diverge from fault-free run: "
                f"{faulted} != {healthy}")

    for label, fn in shake.scenarios() + [
            ("PlanMemo translated sweep", smoke_plan_memo),
            ("two-level node-aware aggregation", smoke_two_level),
            ("faulted equals healthy", smoke_faulted_equals_healthy)]:
        try:
            with override(check=True):
                outputs[label] = fn()
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            if not quiet:
                print(f"repro.check smoke: {label} ok")

    if failures:
        for failure in failures:
            print(f"repro.check smoke FAILED: {failure}", file=sys.stderr)
        return 1
    if not quiet:
        print("repro.check smoke: all runtime sanitizers passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Determinism lint + runtime sanitizer smoke battery",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: src/repro and examples)")
    parser.add_argument("--static-only", action="store_true",
                        help="run only the AST lint")
    parser.add_argument("--smoke-only", action="store_true",
                        help="run only the runtime sanitizer battery")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the lint rule ids and exit")
    parser.add_argument("--require-docstrings", action="store_true",
                        help="also fail on modules without a docstring "
                             "(used by the CI API-reference job)")
    parser.add_argument("--chaos", type=int, nargs="?", const=12,
                        default=None, metavar="N",
                        help="run only the data-integrity chaos campaign "
                             "(N seeded corruption jobs; default 12)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="SEED",
                        help="base seed for the chaos campaign "
                             "(job i uses SEED + i; default 0)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted --chaos campaign "
                             "from its run journal (completed jobs are "
                             "replayed, not re-simulated; output stays "
                             "byte-identical)")
    parser.add_argument("--crash", type=int, nargs="?", const=8,
                        default=None, metavar="N",
                        help="run only the crash/preemption campaign "
                             "(N seeded kill-and-recover drills over the "
                             "sweep supervisor and run journal; "
                             "default 8)")
    parser.add_argument("--crash-seed", type=int, default=None,
                        metavar="SEED",
                        help="base seed for the crash campaign "
                             "(drill i uses SEED + i; default 0)")
    parser.add_argument("--shake", type=int, nargs="?", const=4,
                        default=None, metavar="K",
                        help="run the static lint plus the schedule "
                             "battery: every scenario under the FIFO "
                             "schedule and K perturbed ones (default 4)")
    parser.add_argument("--shake-seed", type=int, default=None,
                        metavar="SEED",
                        help="base seed for the schedule perturbations "
                             "(default 0)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan the chaos campaign out over N worker "
                             "processes (0 = one per core); output is "
                             "identical to --jobs 1")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print findings/failures")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(lint.ALL_RULES):
            if rule in lint.ORDERING_RULES:
                scope = "event-ordering packages"
            elif rule in lint.POOL_RULES:
                scope = "pool packages"
            elif rule in lint.OPT_IN_RULES:
                scope = "opt-in (--require-docstrings)"
            else:
                scope = "all packages"
            waiver = lint.WAIVER_SYNTAX.format(rule=rule)
            print(f"{rule:18s} {scope:32s} waive with: {waiver}")
        return 0
    if args.static_only and args.smoke_only:
        print("--static-only and --smoke-only are mutually exclusive",
              file=sys.stderr)
        return 2
    modes = {"--chaos": args.chaos, "--shake": args.shake,
             "--crash": args.crash}
    exclusive = [flag for flag, count in modes.items() if count is not None]
    if len(exclusive) > 1:
        print(f"{' and '.join(exclusive)} are mutually exclusive",
              file=sys.stderr)
        return 2
    for option, given, mode in (
            ("--resume", args.resume, "--chaos"),
            ("--chaos-seed", args.chaos_seed is not None, "--chaos"),
            ("--jobs", args.jobs is not None, "--chaos"),
            ("--crash-seed", args.crash_seed is not None, "--crash"),
            ("--shake-seed", args.shake_seed is not None, "--shake")):
        if given and modes[mode] is None:
            print(f"{option} only applies to {mode}", file=sys.stderr)
            return 2
    lintless = ("--chaos" if args.chaos is not None
                else "--crash" if args.crash is not None
                else "--smoke-only" if args.smoke_only else None)
    unread = [option for option, given in (
        ("a path to lint", bool(args.paths)),
        ("--require-docstrings", args.require_docstrings)) if given]
    if lintless is not None and unread:
        for option in unread:
            print(f"{option} only applies to the lint (the default run, "
                  f"--static-only or --shake), not to {lintless}",
                  file=sys.stderr)
        return 2
    chaos_seed = args.chaos_seed or 0
    crash_seed = args.crash_seed or 0
    if args.crash is not None:
        if args.static_only or args.smoke_only:
            print("--crash cannot be combined with --static-only or "
                  "--smoke-only", file=sys.stderr)
            return 2
        if args.crash < 1:
            print(f"--crash needs a positive drill count, got {args.crash}",
                  file=sys.stderr)
            return 2
        from ..obs import metrics
        from .crash import run_campaign as run_crash_campaign
        metrics.reset()
        status, recovery = run_crash_campaign(
            args.crash, base_seed=crash_seed, quiet=args.quiet)
        if metrics.current() is not None:
            from ..obs.manifest import write_manifest
            path = write_manifest("crash", config={
                "n": args.crash, "base_seed": crash_seed},
                recovery=recovery)
            if not args.quiet:
                print(f"run manifest: {path}")
        return status
    if args.chaos is not None:
        if args.static_only or args.smoke_only:
            print("--chaos cannot be combined with --static-only or "
                  "--smoke-only", file=sys.stderr)
            return 2
        if args.chaos < 1:
            print(f"--chaos needs a positive run count, got {args.chaos}",
                  file=sys.stderr)
            return 2
        from ..errors import SweepInterrupted
        from ..obs import metrics
        from ..parallel import PointCache, journal_root
        from .chaos import run_campaign
        metrics.reset()
        journal = PointCache(journal_root(
            f"chaos-n{args.chaos}-seed{chaos_seed}"), max_entries=None)
        if not args.resume:
            journal.clear()
        elif journal.entry_count() and not args.quiet:
            # Resume notes go to stderr: a resumed campaign's stdout is
            # byte-identical to an uninterrupted run's.
            print(f"repro.check chaos: resuming "
                  f"({journal.entry_count()} journaled job(s))",
                  file=sys.stderr)
        resume_cmd = (f"python -m repro.check --chaos {args.chaos} "
                      f"--chaos-seed {chaos_seed} --resume")
        try:
            status = run_campaign(args.chaos, base_seed=chaos_seed,
                                  quiet=args.quiet,
                                  jobs=1 if args.jobs is None else args.jobs,
                                  journal=journal, resume_hint=resume_cmd)
        except SweepInterrupted as exc:
            print(f"repro.check chaos: {exc}", file=sys.stderr)
            return 130
        if metrics.current() is not None:
            from ..obs.manifest import write_manifest
            path = write_manifest("chaos", config={
                "n": args.chaos, "base_seed": chaos_seed})
            if not args.quiet:
                print(f"run manifest: {path}")
        journal.clear()
        return status
    if args.shake is not None:
        if args.static_only or args.smoke_only:
            print("--shake cannot be combined with --static-only or "
                  "--smoke-only", file=sys.stderr)
            return 2
        if args.shake < 0:
            print(f"--shake needs a non-negative schedule count, "
                  f"got {args.shake}", file=sys.stderr)
            return 2
        paths = list(args.paths) or _default_paths()
        status = _run_static(paths, args.quiet, args.require_docstrings)
        from .shake import run_battery
        return max(status, run_battery(args.shake, quiet=args.quiet,
                                       base_seed=args.shake_seed or 0))

    status = 0
    if not args.smoke_only:
        paths = list(args.paths) or _default_paths()
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(f"repro.check: no such path(s): "
                  f"{', '.join(map(str, missing))}", file=sys.stderr)
            return 2
        status = max(status, _run_static(paths, args.quiet,
                                         args.require_docstrings))
    if not args.static_only:
        status = max(status, _run_smoke(args.quiet))
    return status


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
