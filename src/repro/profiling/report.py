"""Plain-text rendering of experiment results.

Every experiment regenerates its paper table/figure as text: a table of
rows (for tables and line series) and optionally an ASCII bar chart for
the speedup figures.  Keeping rendering here lets benchmarks and the
``python -m repro.experiments`` CLI share one look.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(labels: Sequence[str], values: Sequence[float],
                     width: int = 50, title: Optional[str] = None,
                     unit: str = "") -> str:
    """Render a horizontal ASCII bar chart (one bar per label)."""
    if len(labels) != len(values):
        raise ValueError("labels and values differ in length")
    vmax = max((abs(v) for v in values), default=0.0)
    scale = (width / vmax) if vmax > 0 else 0.0
    label_w = max((len(str(l)) for l in labels), default=0)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for label, v in zip(labels, values):
        bar = "#" * max(0, int(round(v * scale)))
        lines.append(f"{str(label).ljust(label_w)} | {bar} {_fmt_cell(v)}{unit}")
    return "\n".join(lines)


def format_kv(pairs: Sequence[tuple], title: Optional[str] = None) -> str:
    """Render ``key: value`` lines (experiment headers/settings)."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    key_w = max((len(str(k)) for k, _ in pairs), default=0)
    for k, v in pairs:
        lines.append(f"{str(k).ljust(key_w)} : {_fmt_cell(v)}")
    return "\n".join(lines)
