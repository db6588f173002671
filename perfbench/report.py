"""Summaries, printing, run files and ``--compare`` verdicts.

Standard library only: the parent process of ``bench.py`` never imports
the simulator.

A *run file* (``bench.py --json OUT``) holds, per workload, the result
of one run: ``correct``, ``attempted``, ``failed`` and every metric's
median with its quartiles, sample count and samples.  ``--compare`` reads one run
file per run of each side.  The runs are paired in the order given --
run the two commits alternately, at least :data:`MIN_PAIRS` pairs, each
pair with the same seed and window -- and each end-to-end metric of each
workload gets one verdict:

* ``regression`` -- the change failed more of its job runs than the
  parent (any workload, any metric), or its median is worse than the
  parent's by more than the metric's bound;
* ``unresolved`` -- fewer than :data:`MIN_PAIRS` pairs; or the
  run-to-run spread (interquartile range over median) of either side
  exceeds the bound, unless every change run reads better than every
  parent run;
* ``gain`` -- the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``same`` -- none of the above: no regression beyond the bound.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Parent/change pairs ``--compare`` needs before it calls any verdict
#: but a rise in failures.
MIN_PAIRS = 10


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units, bounds."""
    return json.loads(path.read_text())


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median (``value``), quartiles, count and the samples themselves."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def result_line(results: Dict[str, Dict[str, Any]]) -> str:
    """The final stdout line: one workload's result as
    ``{correct, attempted, failed, metrics: {name: {value, unit}}}``,
    or, for several workloads, the same four keys with ``metrics``
    keyed by workload."""
    def brief(ms: Dict[str, Any]) -> Dict[str, Any]:
        return {k: {"value": m["value"], "unit": m["unit"]}
                for k, m in sorted(ms.items())}

    if len(results) == 1:
        [res] = results.values()
        ms = brief(res["metrics"])
    else:
        ms = {w: brief(r["metrics"]) for w, r in results.items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": ms})


def format_result(name: str, res: Dict[str, Any]) -> List[str]:
    """Human-readable lines: one per metric (and per raw host timing
    under ``host``), then the check tally."""
    lines = []
    rows = sorted(res["metrics"].items()) + [
        (f"host.{k}", m) for k, m in sorted(res.get("host", {}).items())]
    for metric, m in rows:
        spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
                  if m["n"] > 1 else "")
        lines.append(f"{name:>12}  {metric:<28} {m['value']:>14.6g} "
                     f"{m['unit']:<6}{spread}")
    lines.append(f"{name:>12}  checks: {res['attempted'] - res['failed']}"
                 f"/{res['attempted']} job runs correct")
    return lines


# -- compare ---------------------------------------------------------------

def _failed_frac(res: Dict[str, Any]) -> float:
    return res["failed"] / res["attempted"] if res["attempted"] else 1.0


def _spread(values: Sequence[float]) -> float:
    """Interquartile range over median."""
    s = summary(values, "")
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], *,
            better: str, bound: float, failures_rose: bool
            ) -> Tuple[str, int, int]:
    """(verdict, pairs the change won, pairs) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if failures_rose:
        return "regression", wins, len(pairs)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", wins, len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(_spread(parent), _spread(change)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    p_sum = summary(parent, "")
    if (wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_sum["q3"] - p_sum["q1"]):
        return "gain", wins, len(pairs)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression", wins, len(pairs)
    return "same", wins, len(pairs)


def compare(parent_files: Sequence[Path], change_files: Sequence[Path],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Verdict lines for every workload and end-to-end metric present on
    both sides, and whether any verdict is a regression.  Raises
    ``ValueError`` when the sides cannot be paired: different numbers of
    run files, or a pair run with a different seed, window or trace."""
    if len(parent_files) != len(change_files):
        raise ValueError(f"{len(parent_files)} parent run files but "
                         f"{len(change_files)} change run files: "
                         "--compare pairs them one to one")
    runs = [(json.loads(Path(p).read_text()), json.loads(Path(c).read_text()))
            for p, c in zip(parent_files, change_files)]
    for (p, c), pf, cf in zip(runs, parent_files, change_files):
        for key, what in (("seed", "seed"), ("seconds", "window"),
                          ("trace", "trace")):
            if p.get(key) != c.get(key):
                raise ValueError(f"{pf} and {cf} differ in {what} "
                                 f"({p.get(key)!r} vs {c.get(key)!r})")
        if set(p["workloads"]) != set(c["workloads"]):
            raise ValueError(f"{pf} and {cf} ran different workloads")
    lines = [f"{'workload':<13} {'metric':<13} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34}  wins   verdict"]
    regressed = False
    names = [w["name"] for w in spec["workloads"]]
    for wl in names:
        pairs = [(p["workloads"][wl], c["workloads"][wl]) for p, c in runs
                 if wl in p["workloads"]]
        if not pairs:
            continue
        rose = (max(_failed_frac(c) for _, c in pairs)
                > max(_failed_frac(p) for p, _ in pairs))
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs
                      if name in p["metrics"] and name in c["metrics"]]
            if not values:
                continue
            pv, cv = [v for v, _ in values], [v for _, v in values]
            v, wins, n = verdict(pv, cv, better=m["better"],
                                 bound=m["bound"], failures_rose=rose)
            regressed |= v == "regression"
            lines.append(f"{wl:<13} {name:<13} {_fmt(pv):>34} {_fmt(cv):>34}"
                         f"  {wins:>2}/{n:<2}  {v}")
    return lines, regressed


def _fmt(values: Sequence[float]) -> str:
    s = summary(values, "")
    return f"{s['value']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"
