"""``python -m repro.check`` — run the verification layer from the CLI.

One subcommand per stage:

* ``lint [PATH...] [--require-docstrings] [--list-rules]`` — the
  determinism lint of :mod:`repro.check.lint` over the given paths
  (default: ``src/repro`` and ``examples`` when run from the repo root,
  else the installed package directory).
* ``shake [K] [--seed S]`` — the scenario battery of
  :mod:`repro.check.shake`, every scenario under the FIFO schedule and
  ``K`` (default 4) perturbed event schedules (``REPRO_SHAKE``) with
  the runtime sanitizers on, asserting bit-identical data across
  schedules.  ``shake 0`` runs each scenario once, under FIFO only.
* ``chaos [N] [--seed S] [--jobs J] [--resume]`` — the end-to-end
  data-integrity campaign of :mod:`repro.check.chaos`: ``N`` (default
  24) seeded jobs sweeping corruption rates and scenarios, asserting
  bit-identical results, strict inject/detect matching and a consistent
  fault ledger.  An interrupted or killed campaign leaves a run journal
  behind; rerun it with ``--resume`` to replay the completed jobs and
  finish with byte-identical output.
* ``crash [N] [--seed S]`` — the preemption campaign of
  :mod:`repro.check.crash`: ``N`` (default 8) seeded drills that
  SIGKILL workers mid-point and kill whole sweep and chaos runs between
  journal writes, asserting that supervised retry and ``--resume``
  recover every one bit-identically.

With no subcommand, all four stages run in that order at their
defaults, which are CI's sizes, and the exit status is the worst
stage's.  Every stage accepts ``-q``; an option outside its stage is a
usage error.  Under ``REPRO_OBS=1``, ``chaos`` and ``crash`` write a
run manifest (``results/chaos``, ``results/crash``).

Exit status: 0 clean, 1 findings/sanitizer/campaign failure, 2 usage
error (130 when a chaos campaign is interrupted by SIGINT/SIGTERM).

Usage::

    PYTHONPATH=src python -m repro.check            # every stage, as CI
    python -m repro.check lint src/repro
    python -m repro.check lint --require-docstrings src/repro
    python -m repro.check lint --list-rules
    python -m repro.check shake 2 --seed 1
    python -m repro.check chaos 8 --seed 100
    python -m repro.check chaos 25 --resume         # finish a killed run
    python -m repro.check crash 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from . import lint

#: The stages a bare ``python -m repro.check`` runs, in order.
STAGES = ("lint", "shake", "chaos", "crash")


def _default_paths() -> List[Path]:
    """``src/repro`` + ``examples`` from the repo root when present,
    falling back to wherever the package is installed."""
    cwd = Path.cwd()
    candidates = [cwd / "src" / "repro", cwd / "examples"]
    found = [p for p in candidates if p.is_dir()]
    if found:
        return found
    return [Path(__file__).resolve().parent.parent]


def _list_rules() -> None:
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


def run_lint(paths: Sequence[Path], require_docstrings: bool,
             list_rules: bool, quiet: bool) -> int:
    """The ``lint`` stage: the determinism lint over ``paths``."""
    if list_rules:
        _list_rules()
        return 0
    paths = list(paths) or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro.check: no such path(s): "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
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


def run_shake(k: int, seed: int, quiet: bool) -> int:
    """The ``shake`` stage: the scenario battery under ``k`` shaken
    schedules besides FIFO."""
    from .shake import run_battery
    return run_battery(k, quiet=quiet, base_seed=seed)


def _write_manifest(run: str, quiet: bool, **sections) -> None:
    """Write ``results/<run>/manifest.json`` when observability is on."""
    from ..obs import metrics
    if metrics.current() is not None:
        from ..obs.manifest import write_manifest
        path = write_manifest(run, **sections)
        if not quiet:
            print(f"run manifest: {path}")


def run_chaos(n: int, seed: int, jobs: int, resume: bool,
              quiet: bool) -> int:
    """The ``chaos`` stage: ``n`` seeded integrity jobs, journaled so a
    killed campaign resumes."""
    from ..errors import SweepInterrupted
    from ..obs import metrics
    from ..parallel import PointCache, journal_root
    from .chaos import run_campaign
    metrics.reset()
    journal = PointCache(journal_root(f"chaos-n{n}-seed{seed}"),
                         max_entries=None)
    if not resume:
        journal.clear()
    elif journal.entry_count() and not quiet:
        # Resume notes go to stderr: a resumed campaign's stdout is
        # byte-identical to an uninterrupted run's.
        print(f"repro.check chaos: resuming "
              f"({journal.entry_count()} journaled job(s))",
              file=sys.stderr)
    try:
        status = run_campaign(
            n, base_seed=seed, quiet=quiet, jobs=jobs, journal=journal,
            resume_hint=(f"python -m repro.check chaos {n} --seed {seed} "
                         f"--resume"))
    except SweepInterrupted as exc:
        print(f"repro.check chaos: {exc}", file=sys.stderr)
        return 130
    _write_manifest("chaos", quiet, config={"n": n, "base_seed": seed})
    journal.clear()
    return status


def run_crash(n: int, seed: int, quiet: bool) -> int:
    """The ``crash`` stage: ``n`` seeded kill-and-recover drills."""
    from ..obs import metrics
    from .crash import run_campaign
    metrics.reset()
    status, recovery = run_campaign(n, base_seed=seed, quiet=quiet)
    _write_manifest("crash", quiet, config={"n": n, "base_seed": seed},
                    recovery=recovery)
    return status


def _count(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="The verification layer. With no stage, runs lint, "
                    "shake, chaos and crash in order at their defaults.")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print findings/failures")
    parser.set_defaults(run=None)
    # A stage's own -q must not reset a top-level one.
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("-q", "--quiet", action="store_true",
                       default=argparse.SUPPRESS,
                       help="only print findings/failures")
    stages = parser.add_subparsers(title="stages", metavar="STAGE")

    stage = stages.add_parser("lint", parents=[quiet],
                              help="determinism lint")
    stage.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                       help="files/directories to lint "
                            "(default: src/repro and examples)")
    stage.add_argument("--require-docstrings", action="store_true",
                       help="also fail on modules without a docstring "
                            "(used by the CI API-reference job)")
    stage.add_argument("--list-rules", action="store_true",
                       help="print the lint rule ids and exit")
    stage.set_defaults(run=run_lint)

    stage = stages.add_parser("shake", parents=[quiet],
                              help="schedule battery")
    stage.add_argument("k", nargs="?", type=_count(0), default=4,
                       metavar="K",
                       help="perturbed schedules besides FIFO "
                            "(default %(default)s)")
    stage.add_argument("--seed", type=int, default=0,
                       help="base seed of the perturbations "
                            "(default %(default)s)")
    stage.set_defaults(run=run_shake)

    stage = stages.add_parser("chaos", parents=[quiet],
                              help="data-integrity campaign")
    stage.add_argument("n", nargs="?", type=_count(1), default=24,
                       metavar="N",
                       help="seeded corruption jobs (default %(default)s)")
    stage.add_argument("--seed", type=int, default=0,
                       help="base seed: job i uses SEED + i "
                            "(default %(default)s)")
    stage.add_argument("--jobs", type=_count(0), default=1,
                       help="fan the jobs out over this many worker "
                            "processes (0 = one per core); output is "
                            "identical to --jobs 1")
    stage.add_argument("--resume", action="store_true",
                       help="resume an interrupted campaign from its run "
                            "journal (completed jobs are replayed, not "
                            "re-simulated; output stays byte-identical)")
    stage.set_defaults(run=run_chaos)

    stage = stages.add_parser("crash", parents=[quiet],
                              help="preemption drills")
    stage.add_argument("n", nargs="?", type=_count(1), default=8,
                       metavar="N",
                       help="seeded kill-and-recover drills "
                            "(default %(default)s)")
    stage.add_argument("--seed", type=int, default=0,
                       help="base seed: drill i uses SEED + i "
                            "(default %(default)s)")
    stage.set_defaults(run=run_crash)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run one stage, or every stage in order."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.run is None:
        quiet = ["-q"] if args.quiet else []
        selected = [parser.parse_args([name] + quiet) for name in STAGES]
    else:
        selected = [args]
    statuses = []
    for options in selected:
        kwargs = vars(options)
        statuses.append(kwargs.pop("run")(**kwargs))
    return max(statuses)


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
