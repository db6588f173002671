"""The traced run's per-layer view: host self time from ``cProfile``,
call counts of the hot primitives, deterministic counters from
``repro.obs``, and simulated phase totals.

Self time belongs to the ``src/repro/<layer>/`` package that defines the
function.  Code outside ``repro`` -- C builtins such as numpy's
``astype``, numpy's and the standard library's Python code, and the
benchmark's own shims -- has no layer of its own: its self time goes to
whoever called it, split by the profile's per-caller times and followed
up the call graph until a ``repro`` function is reached.  ``repro``
modules outside the layer packages (``experiments``, ``obs``, ...),
the benchmark's top level, and call-graph cycles land in ``other``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.config import MiB

from .workloads import PHASES

LAYERS = ("sim", "mpi", "cluster", "io", "core", "dataspace", "pfs",
          "workloads", "integrity", "faults", "parallel")

#: name -> unit of every metric the traced run reports.
UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "sim.events": "count", "sim.runs": "count",
    "mpi.messages": "count", "mpi.collectives": "count",
    "mpi.wire_size_calls": "count", "mpi.wire_mib": "MiB",
    "cluster.node_of_rank_calls": "count",
    "io.shuffle_mib": "MiB", "io.internode_mib": "MiB",
    "io.sim_read_s": "sim_s", "io.sim_shuffle_s": "sim_s",
    "io.sim_write_s": "sim_s",
    "core.map_pieces_calls": "count", "core.partials": "count",
    "core.sim_map_s": "sim_s",
    "dataspace.clip_calls": "count",
    "pfs.ost_requests": "count", "pfs.ost_mib": "MiB",
    "pfs.blocks_generated": "count", "pfs.blockcache_hit_ratio": "ratio",
    "pfs.read_retries": "count",
    "workloads.field_calls": "count",
    "integrity.crc32c_calls": "count", "integrity.blocks_verified": "count",
    "integrity.partials_verified": "count",
    "faults.injected": "count", "faults.detected": "count",
    "faults.recovered": "count",
    "parallel.pool_wall_s": "s",
    "parallel.wait_s": "s", "parallel.workers_started": "count",
    "parallel.points_executed": "count", "parallel.worker_peak_rss_mib": "MiB",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}

#: metric -> (file path suffix, function name) whose call count it is.
CALLS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "mpi.wire_size_calls": (("repro/mpi/wire.py", "wire_size"),),
    "cluster.node_of_rank_calls": (("repro/cluster/machine.py",
                                    "node_of_rank"),),
    "core.map_pieces_calls": (("repro/core/map_engine.py", "map_pieces"),),
    "dataspace.clip_calls": (("repro/dataspace/flatten.py", "clip"),),
    "pfs.blocks_generated": (("repro/pfs/datasource.py", "_generate"),),
    # The figures' two synthetic fields.
    "workloads.field_calls": (("repro/workloads/climate.py", "climate_field"),
                              ("repro/pfs/datasource.py", "default_field")),
    "integrity.crc32c_calls": (("repro/integrity/digest.py", "crc32c"),),
    "parallel.workers_started": (("multiprocessing/process.py", "start"),),
}

Func = Tuple[str, int, str]  # pstats key: (file, line, function name)


class Attribution:
    """Self time by layer for one ``pstats.Stats(...).stats`` table."""

    def __init__(self, stats: Dict[Func, Any], src_root: Path) -> None:
        self.stats = stats
        self.repro = str(src_root / "repro") + os.sep
        self._share: Dict[Func, Dict[str, float]] = {}

    def owner(self, func: Func) -> Optional[str]:
        """The layer defining ``func``; ``"other"`` for ``repro`` code
        outside the layers; ``None`` for code outside ``repro``."""
        path = os.path.normpath(func[0])
        if not path.startswith(self.repro):
            return None
        package = path[len(self.repro):].split(os.sep)[0]
        return package if package in LAYERS else "other"

    def _up(self, func: Func, visiting: frozenset) -> Dict[str, float]:
        """How time spent in ``func`` divides between layers."""
        if func in self._share:
            return self._share[func]
        layer = self.owner(func)
        if layer is not None:
            share = {layer: 1.0}
        else:
            callers = self.stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            if not callers or func in visiting:
                return {"other": 1.0}
            # Weight each caller by the cumulative time spent under it.
            share = self._split({c: e[3] for c, e in callers.items()},
                                visiting | {func})
        self._share[func] = share
        return share

    def _split(self, weights: Dict[Func, float],
               visiting: frozenset) -> Dict[str, float]:
        total = sum(weights.values())
        if total <= 0:
            weights = {c: 1.0 for c in weights}
            total = float(len(weights))
        share: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, frac in self._up(caller, visiting).items():
                share[layer] += frac * weight / total
        return dict(share)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (and ``other``); they sum to
        the profile's total self time."""
        out: Dict[str, float] = {layer: 0.0 for layer in (*LAYERS, "other")}
        for func, (_, _, tt, _, callers) in self.stats.items():
            layer = self.owner(func)
            if layer is not None:
                out[layer] += tt
                continue
            if not callers:
                out["other"] += tt
                continue
            # A foreign function's own self time splits by the self time
            # it accrued under each caller.
            for lay, frac in self._split({c: e[2] for c, e in callers.items()},
                                         frozenset({func})).items():
                out[lay] += tt * frac
        return out

    def _entries(self, targets: Iterable[Tuple[str, str]]):
        """Profile entries of the functions named by (path suffix, name)."""
        for (path, _, name), entry in self.stats.items():
            path = path.replace(os.sep, "/")
            if any(name == n and path.endswith(s) for s, n in targets):
                yield entry

    def calls(self, targets: Iterable[Tuple[str, str]]) -> int:
        """Total calls (recursive ones included) to the named functions."""
        return sum(e[1] for e in self._entries(targets))

    def cumulative(self, targets: Iterable[Tuple[str, str]]) -> float:
        """Cumulative seconds spent in the named functions."""
        return sum(e[3] for e in self._entries(targets))


def per_layer(att: Attribution, *, traced_wall: float, untraced_wall: float,
              counters: Dict[str, float], pool_counters: Dict[str, float],
              outcomes, worker_rss_mib: float,
              pool_wall: float) -> Dict[str, float]:
    """Every metric of :data:`UNITS` from one traced pass.

    ``counters`` is the volatile-inclusive ``repro.obs`` snapshot of a
    serial pass, ``pool_counters`` that of a pool pass, ``outcomes`` the
    job outcomes of the serial pass (which recorded phase timelines),
    ``pool_wall`` the host wall of an untraced pool pass.
    """
    selfs = att.self_times()
    out: Dict[str, float] = {f"{k}.self_s": v for k, v in selfs.items()}
    for name, targets in CALLS.items():
        out[name] = att.calls(targets)
    out["parallel.wait_s"] = att.cumulative(
        (("multiprocessing/connection.py", "wait"),))

    def total(prefix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    hits = counters.get("pfs.blockcache.hits", 0)
    misses = counters.get("pfs.blockcache.misses", 0)
    out.update({
        "sim.events": counters.get("sim.events", 0),
        "sim.runs": counters.get("sim.runs", 0),
        "mpi.messages": counters.get("mpi.messages", 0),
        "mpi.collectives": total("mpi.coll."),
        "mpi.wire_mib": counters.get("mpi.wire_bytes", 0) / MiB,
        "io.shuffle_mib": counters.get("io.shuffle_bytes", 0) / MiB,
        "io.internode_mib": counters.get("io.internode_bytes", 0) / MiB,
        "pfs.ost_requests": counters.get("pfs.ost.requests", 0),
        "pfs.ost_mib": counters.get("pfs.ost.bytes", 0) / MiB,
        "pfs.blockcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pfs.read_retries": counters.get("pfs.read_retries", 0),
        "integrity.blocks_verified": counters.get("integrity.blocks_verified", 0),
        "integrity.partials_verified": counters.get("integrity.partials_verified", 0),
        "faults.injected": total("faults.inject:"),
        "faults.detected": total("faults.detect:"),
        "faults.recovered": total("faults.recover:"),
        "parallel.pool_wall_s": pool_wall,
        "parallel.points_executed": pool_counters.get("parallel.points_executed", 0),
        "parallel.worker_peak_rss_mib": worker_rss_mib,
        "core.partials": sum(o.partials for o in outcomes),
        "core.sim_map_s": sum(o.map_s for o in outcomes),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac": 1.0 - sum(selfs.values()) / traced_wall,
    })
    for phase in PHASES:
        out[f"io.sim_{phase}_s"] = sum(o.phases.get(phase, 0.0)
                                       for o in outcomes)
    return out
