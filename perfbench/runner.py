"""One workload measured inside one process.

A run first makes one untimed warm-up pass, so lazy imports and
first-call set-up are paid before timing.  The timed window then
repeats cold serial passes -- every point in order in this process,
the block cache emptied and ``gc.collect()`` run first, which is what a
command-line user pays -- until the window is spent.  Between jobs the
host-speed probe (:func:`probe`) times a fixed computation that runs no
``repro`` code; ``wall_s`` is the median pass wall rescaled by the
probes to a nominal host speed, so a host that slows down for a while
(a busy neighbour on a shared machine) does not read as slower code.

The traced run adds *pool* passes: the same points through
``run_sweep(jobs=2)`` with a fresh on-disk point cache.

Answers are checked after the passes, so the reference arrays never
count towards the measured peak RSS.  A job fails when it raised, when
its answer differs from the numpy reference, or when its row (simulated
time, wire bytes, answer) differs from the first serial pass -- pool,
traced and counting passes included.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import pstats
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.config import MiB
from repro.obs import metrics
from repro.parallel import PointCache, PointError, SweepPoint, run_sweep
from repro.pfs import datasource

from . import layers
from .checks import answer_ok, reference
from .report import summary
from .workloads import BenchWorkload, Failure, Outcome, is_cc, run_point

POOL_JOBS = 2
POINT_FN = "perfbench.workloads:run_point"
#: The probe's wall on the nominal host (about its time on a quiet
#: 2-vCPU Xeon container): the end-to-end host times are in seconds of
#: that host.
PROBE_NOMINAL_S = 0.025
#: A timed pass probes the host between jobs once this many seconds of
#: jobs have run since the last probe.
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Wall seconds of a fixed computation that mixes what the
    simulator's passes spend their time on -- interpreter work like the
    event kernel's (generator resumes, heap pushes and pops, dict
    stores) and a numpy pass like field generation -- without calling
    any ``repro`` code, so no change to the program moves it."""
    def ticker(k: int):
        while True:
            k = (k * 1103515245 + 12345) & 0x7FFFFFFF
            yield k

    t0 = time.perf_counter()
    tickers = [ticker(i) for i in range(64)]
    heap: List[Tuple[int, int]] = []
    seen: Dict[int, int] = {}
    for i in range(10_000):
        k = next(tickers[i & 63])
        heapq.heappush(heap, (k, i))
        seen[k & 4095] = i
        if len(heap) > 512:
            heapq.heappop(heap)
    idx = np.arange(1 << 18, dtype=np.int64)
    field = (np.sin(idx * 1e-3) * np.cos(idx * 7e-4)).astype(np.float32)
    field.sum(dtype=np.float64)
    return time.perf_counter() - t0


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Run:
    """A workload's passes so far and what they returned."""

    def __init__(self, wl: BenchWorkload, workdir: Path,
                 paper_json: Optional[Path] = None) -> None:
        self.wl = wl
        self.workdir = workdir
        self.paper_json = paper_json
        #: (pass kind, outcome per job) in the order the passes ran.
        self.passes: List[Tuple[str, List[Any]]] = []

    def _cold(self) -> None:
        if datasource.GLOBAL_BLOCK_CACHE is not None:
            datasource.GLOBAL_BLOCK_CACHE.clear()
        gc.collect()

    def serial(self, timeline: bool = False) -> float:
        """One cold serial pass; returns its host wall."""
        self._cold()
        t0 = time.perf_counter()
        outs = [o for jobs in self.wl.points
                for o in run_point(jobs, timeline, self.wl.cache_bytes)]
        wall = time.perf_counter() - t0
        self.passes.append(("serial", outs))
        return wall

    def probed_serial(self) -> Tuple[float, float, List[float]]:
        """One cold serial pass with the host probed before it, after
        it, and between jobs every :data:`PROBE_EVERY_S`; returns its
        host wall, its wall at the nominal host speed, and the probes.

        Each stretch of jobs between two probes is scaled by
        :data:`PROBE_NOMINAL_S` over the mean of those two probes: the
        host's speed changes within seconds, and the probes on either
        side of a stretch see the speed it ran at.  The jobs run one by
        one through :func:`run_point`, in pass order, as in
        :meth:`serial`; the probes are not part of the wall."""
        self._cold()
        outs: List[Any] = []
        probes = [probe()]
        wall = nominal = stretch = 0.0
        jobs = self.wl.jobs
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            outs += run_point((job,), False, self.wl.cache_bytes)
            dt = time.perf_counter() - t0
            wall += dt
            stretch += dt
            if stretch >= PROBE_EVERY_S or i == len(jobs) - 1:
                probes.append(probe())
                nominal += stretch * PROBE_NOMINAL_S * 2 / sum(probes[-2:])
                stretch = 0.0
        self.passes.append(("serial", outs))
        return wall, nominal, probes

    def pool(self) -> Optional[float]:
        """One cold pool pass; returns its host wall (``None`` if the
        sweep raised, which fails every job of the pass)."""
        points = [SweepPoint.make(POINT_FN, label=f"{self.wl.name}#{i}",
                                  jobs=jobs, cache_bytes=self.wl.cache_bytes)
                  for i, jobs in enumerate(self.wl.points)]
        self._cold()
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            t0 = time.perf_counter()
            try:
                results = run_sweep(points, jobs=POOL_JOBS,
                                    cache=PointCache(root=Path(tmp)))
            except PointError as exc:
                self.passes.append(("pool", [Failure(j.label, str(exc))
                                             for j in self.wl.jobs]))
                return None
            wall = time.perf_counter() - t0
        self.passes.append(("pool", [o for r in results for o in r]))
        return wall

    def window(self, seconds: float, min_passes: int
               ) -> Tuple[List[float], List[float], List[float]]:
        """Probed serial passes until ``seconds`` are spent (at least
        ``min_passes``); returns their host walls, their walls at the
        nominal host speed, and every probe."""
        walls: List[float] = []
        nominals: List[float] = []
        probes: List[float] = []
        start = time.perf_counter()
        while True:
            wall, nominal, p = self.probed_serial()
            walls.append(wall)
            nominals.append(nominal)
            probes += p
            n = len(walls)
            elapsed = time.perf_counter() - start
            # Stop unless another pass would mostly fit in the window.
            if n >= min_passes and elapsed + elapsed / (2 * n) > seconds:
                return walls, nominals, probes

    def first_outcomes(self) -> List[Any]:
        return self.passes[0][1]

    def check(self) -> Tuple[int, int]:
        """(attempted, failed) job runs over every pass; each failure is
        reported on stderr."""
        jobs = self.wl.jobs
        memo: Dict[Any, Any] = {}
        want = [reference(job, memo) for job in jobs]
        first = [o.row if isinstance(o, Outcome) else None
                 for o in self.first_outcomes()]
        paper = self._paper_problem()
        attempted = failed = 0
        for k, (kind, outs) in enumerate(self.passes):
            for job, expect, base, got in zip(jobs, want, first, outs):
                attempted += 1
                if isinstance(got, Failure):
                    problem = got.error
                elif not answer_ok(got.row[3], expect):
                    problem = f"answer {got.row[3]!r} != reference {expect!r}"
                elif base is not None and got.row != base:
                    problem = f"row {got.row!r} != first pass {base!r}"
                elif k == 0 and paper:
                    problem = paper
                else:
                    continue
                failed += 1
                print(f"FAIL {self.wl.name} pass {k} ({kind}) {job.label}: "
                      f"{problem}", file=sys.stderr)
        return attempted, failed

    def _paper_problem(self) -> Optional[str]:
        """At seed 0, the weak-scaling rows must equal the Figure 10
        rows recorded in ``BENCH_paper.json``."""
        outs = self.first_outcomes()
        if self.wl.paper_rows is None or self.paper_json is None:
            return None
        if not all(isinstance(o, Outcome) for o in outs):
            return None  # the failed jobs are reported already
        got = self.wl.paper_rows(outs)
        recorded = json.loads(self.paper_json.read_text())["simulated"]["rows"]
        if got != recorded:
            return f"fig10 rows {got} != {self.paper_json.name} {recorded}"
        return None

    def simulated(self) -> Dict[str, Dict[str, Any]]:
        """The deterministic end-to-end totals of the first pass."""
        cc = mpi = wire = 0.0
        for job, o in zip(self.wl.jobs, self.first_outcomes()):
            if isinstance(o, Outcome):
                _, sim_s, wire_bytes, _ = o.row
                if is_cc(job):
                    cc += sim_s
                else:
                    mpi += sim_s
                wire += wire_bytes
        return {"sim_cc_s": summary([cc], "sim_s"),
                "sim_mpi_s": summary([mpi], "sim_s"),
                "sim_wire_mib": summary([wire / MiB], "MiB")}


def measure(run: Run, seconds: float, min_passes: int) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric but ``setup_s``.  The
    raw pass and probe walls go under ``host``."""
    run.serial()  # warm-up, untimed; its rows are checked like any pass
    walls, nominals, probes = run.window(seconds, min_passes)
    rss = _rss_mib(resource.RUSAGE_SELF)
    attempted, failed = run.check()
    out = {"wall_s": summary(nominals, "s"),
           "peak_rss_mib": summary([rss], "MiB"), **run.simulated()}
    res = _result(attempted, failed, out)
    res["host"] = {"pass_s": summary(walls, "s"),
                   "probe_s": summary(probes, "s")}
    return res


def trace(run: Run, seconds: float, src_root: Path) -> Dict[str, Any]:
    """The traced run: untraced serial passes and one untraced pool pass
    for the overhead baseline, one profiled serial + pool pair, then one
    serial and one pool pass counting with ``repro.obs`` on (the serial
    one recording phase timelines)."""
    run.serial()  # warm-up
    walls, _, _ = run.window(seconds, 1)
    pool_wall = run.pool()

    def pair() -> None:
        run.serial()
        run.pool()

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.runcall(pair)
    traced_wall = time.perf_counter() - t0
    with metrics.override_obs(True):
        run.serial(timeline=True)
        counters = metrics.current().snapshot(volatile=True)["counters"]
    outcomes = [o for o in run.passes[-1][1] if isinstance(o, Outcome)]
    with metrics.override_obs(True):
        run.pool()
        pool_counters = metrics.current().snapshot(volatile=True)["counters"]
    attempted, failed = run.check()
    att = layers.Attribution(pstats.Stats(prof).stats, src_root)
    values = layers.per_layer(
        att, traced_wall=traced_wall,
        untraced_wall=statistics.median(walls) + (pool_wall or 0.0),
        counters=counters, pool_counters=pool_counters, outcomes=outcomes,
        worker_rss_mib=_rss_mib(resource.RUSAGE_CHILDREN),
        pool_wall=pool_wall or 0.0)
    return _result(attempted, failed,
                   {k: summary([v], layers.UNITS[k]) for k, v in values.items()})


def _result(attempted: int, failed: int,
            metrics_: Dict[str, Any]) -> Dict[str, Any]:
    return {"correct": attempted > 0 and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics_}
