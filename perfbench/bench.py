#!/usr/bin/env python3
"""The repository benchmark: four workloads, host and simulated metrics.

Run from the repository root::

    python3 perfbench/bench.py                          # all workloads
    python3 perfbench/bench.py --workload ingest --seed 7
    python3 perfbench/bench.py --workload integrity --trace 1
    python3 perfbench/bench.py --workload many-ranks --json run.json
    python3 perfbench/bench.py --compare parent-*.json -- change-*.json

Each workload runs in a fresh interpreter, one after another, after
several set-up-only interpreters that time ``setup_s``.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{correct, attempted, failed, metrics}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics.  See ``perfbench/README.md``.

Exit status: 0 when every answer check passed, 1 when any failed or
``--compare`` found a regression, 2 when the benchmark could not run
(no ``src/repro`` beside ``perfbench/``, a crashed or timed-out child).
"""

import time

# setup_s is timed from here: before the interpreter imports repro.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402

#: Set-up-only interpreters per workload; the measuring child is one more
#: sample, and ``setup_s`` is the median.
SETUP_PROBES = 4
#: Host probes after each set-up; their median rescales it.
SETUP_HOST_PROBES = 3
#: Serial passes every timed window holds at least.
MIN_PASSES = 3
#: Each workload (its set-up children included) must end within this
#: many seconds.
DEADLINE_S = 170.0
#: Point caches and temporary files go here, inside the checkout.
WORKDIR = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def workload_names() -> list:
    """The workloads ``BENCHMARK.json`` names, in its order."""
    return [w["name"] for w in report.load_spec()["workloads"]]


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark, or compare run files.")
    ap.add_argument("--workload", choices=workload_names(),
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (0 = the figures' data; default 0)")
    ap.add_argument("--seconds", type=float,
                    default=report.load_spec()["run_seconds"],
                    help="measurement window per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: report the per-layer metrics of a traced run")
    ap.add_argument("--json", type=Path, metavar="OUT",
                    help="also write the run file OUT")
    ap.add_argument("--compare", nargs="+", type=Path, metavar="PARENT.json",
                    help="compare parent run files with the change run "
                         "files given after --")
    ap.add_argument("change", nargs="*", type=Path, metavar="CHANGE.json",
                    help=argparse.SUPPRESS)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap


def _child(args: argparse.Namespace) -> int:
    """Inside the fresh interpreter: build, measure, print one JSON line."""
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    from perfbench import runner, workloads

    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    # The set-up at the nominal host speed, by the probes right after it.
    probes = [runner.probe() for _ in range(SETUP_HOST_PROBES)]
    setup = {"setup_s": setup_s, "nominal_s": setup_s
             * runner.PROBE_NOMINAL_S / statistics.median(probes)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    run = runner.Run(wl, WORKDIR, paper_json=ROOT / "BENCH_paper.json")
    if args.trace:
        res = runner.trace(run, args.seconds / 2, SRC)
    else:
        res = runner.measure(run, args.seconds, MIN_PASSES)
    _stop_resource_tracker()
    res["setup"] = setup
    print(json.dumps(res))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with
    the first pool, so no process outlives the child."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _spawn(argv, deadline: float) -> dict:
    """Run this script as a child in its own process group; return the
    JSON object on its last stdout line.  Whatever is left of the group
    when it exits is killed."""
    WORKDIR.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(WORKDIR),
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--child", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {argv} timed out") from None
    finally:
        _reap_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {argv} exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"child {argv} printed no result") from None


def _reap_group(pgid: int, grace: float = 5.0) -> None:
    """Wait for every process of group ``pgid`` to end, killing what is
    still there after ``grace`` seconds."""
    end = time.monotonic() + grace
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > end:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed, end = True, time.monotonic() + grace
        time.sleep(0.05)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """One workload's result: the measuring child's, plus ``setup_s``
    from the set-up-only children when untraced."""
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups = ([] if trace else
              [_spawn(argv + ["--setup-only"], deadline)
               for _ in range(SETUP_PROBES)])
    res = _spawn(argv, deadline)
    setups.append(res.pop("setup"))
    if not trace:
        res["metrics"]["setup_s"] = report.summary(
            [s["nominal_s"] for s in setups], "s")
        res["host"]["setup_s"] = report.summary(
            [s["setup_s"] for s in setups], "s")
    return res


def exit_status(results: dict) -> int:
    """0 when every workload's checks passed, else 1."""
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.compare:
        if not args.change:
            ap.error("--compare needs change run files after --")
        try:
            lines, regressed = report.compare(args.compare, args.change,
                                              report.load_spec())
        except ValueError as exc:
            ap.error(str(exc))
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.change:
        ap.error(f"unexpected arguments {args.change}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.child:
            return _child(args)
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {SRC}")
        results = {}
        for name in [args.workload] if args.workload else workload_names():
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace,
                                         time.monotonic() + DEADLINE_S)
            print("\n".join(report.format_result(name, results[name])),
                  flush=True)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1) + "\n")
    print(report.result_line(results))
    return exit_status(results)


if __name__ == "__main__":
    sys.exit(main())
