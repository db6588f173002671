"""CPU-state accounting: user / sys / wait intervals per rank.

Reproduces the measurements behind the paper's Figures 2-3: while a
two-phase collective read runs, how much core time is user computation,
how much is system time (pack/unpack/copy), and how much is I/O wait.

The runtime records labelled intervals; :meth:`CpuProfiler.series` bins
them over simulated time and reports percentages exactly like the
``top``-style traces in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ReproError

#: Recognized CPU states.
KINDS = ("user", "sys", "wait")


@dataclass(frozen=True)
class Interval:
    """One labelled span of a rank's time."""

    rank: int
    kind: str
    start: float
    end: float


class CpuProfiler:
    """Collects labelled intervals and aggregates them.

    Parameters
    ----------
    nprocs:
        Ranks being profiled (denominator for percentages).
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ReproError(f"need >= 1 rank, got {nprocs}")
        self.nprocs = nprocs
        self.intervals: List[Interval] = []

    def record(self, rank: int, kind: str, start: float, end: float) -> None:
        """Add one interval; zero-length intervals are dropped."""
        if kind not in KINDS:
            raise ReproError(f"unknown CPU state {kind!r}; expected {KINDS}")
        if end < start:
            raise ReproError(f"interval ends before it starts: [{start}, {end}]")
        if end > start:
            self.intervals.append(Interval(rank, kind, start, end))

    # -- aggregation --------------------------------------------------------
    def merged_intervals(self) -> List[Interval]:
        """Intervals with per-(rank, kind) overlaps coalesced.

        A rank blocked in two concurrent sub-activities (e.g. its
        receiver loop and its aggregator loop) is *one* waiting process;
        merging keeps every percentage within 100%.
        """
        by_key: Dict[Tuple[int, str], List[Interval]] = {}
        for iv in self.intervals:
            by_key.setdefault((iv.rank, iv.kind), []).append(iv)
        merged: List[Interval] = []
        for (rank, kind), ivs in by_key.items():
            ivs.sort(key=lambda i: i.start)
            cur_start, cur_end = ivs[0].start, ivs[0].end
            for iv in ivs[1:]:
                if iv.start <= cur_end:
                    cur_end = max(cur_end, iv.end)
                else:
                    merged.append(Interval(rank, kind, cur_start, cur_end))
                    cur_start, cur_end = iv.start, iv.end
            merged.append(Interval(rank, kind, cur_start, cur_end))
        return merged

    def totals(self) -> Dict[str, float]:
        """Total seconds per state across all ranks (overlaps merged)."""
        out = {k: 0.0 for k in KINDS}
        for iv in self.merged_intervals():
            out[iv.kind] += iv.end - iv.start
        return out

    def span(self) -> Tuple[float, float]:
        """``(earliest start, latest end)`` over recorded intervals."""
        if not self.intervals:
            return (0.0, 0.0)
        return (min(iv.start for iv in self.intervals),
                max(iv.end for iv in self.intervals))

    def series(self, bin_width: float, t_start: float | None = None,
               t_end: float | None = None) -> List[Dict[str, float]]:
        """Percentage of rank-time per state, binned over simulated time.

        Each entry: ``{"t": bin_start, "user": %, "sys": %, "wait": %,
        "idle": %}``; percentages are of ``nprocs * bin_width`` rank-
        seconds, so the four values sum to 100 within rounding.
        """
        if bin_width <= 0:
            raise ReproError(f"bin width must be positive, got {bin_width}")
        lo, hi = self.span()
        if t_start is not None:
            lo = t_start
        if t_end is not None:
            hi = t_end
        if hi <= lo:
            return []
        nbins = int((hi - lo) // bin_width) + 1
        acc = [{k: 0.0 for k in KINDS} for _ in range(nbins)]
        for iv in self.merged_intervals():
            start = max(iv.start, lo)
            end = min(iv.end, hi)
            if end <= start:
                continue
            b_first = max(0, int((start - lo) // bin_width))
            b_last = min(nbins - 1, int((end - lo) // bin_width))
            for b in range(b_first, b_last + 1):
                bin_lo = lo + b * bin_width
                chunk = min(end, bin_lo + bin_width) - max(start, bin_lo)
                if chunk > 0:
                    acc[b][iv.kind] += chunk
        denom = self.nprocs * bin_width
        out = []
        for b, counts in enumerate(acc):
            row = {"t": lo + b * bin_width}
            used = 0.0
            for k in KINDS:
                pct = 100.0 * counts[k] / denom
                row[k] = pct
                used += pct
            row["idle"] = max(0.0, 100.0 - used)
            out.append(row)
        # Trim trailing all-idle bins created by the ceiling above.
        while out and all(out[-1][k] == 0.0 for k in KINDS):
            out.pop()
        return out

    def percentages(self) -> Dict[str, float]:
        """Overall state percentages over the busy span (idle included)."""
        lo, hi = self.span()
        if hi <= lo:
            return {k: 0.0 for k in KINDS} | {"idle": 100.0}
        denom = self.nprocs * (hi - lo)
        totals = self.totals()
        out = {k: 100.0 * totals[k] / denom for k in KINDS}
        out["idle"] = max(0.0, 100.0 - sum(out.values()))
        return out
