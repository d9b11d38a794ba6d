"""Terminal-friendly rendering of figure series.

The paper's figures are time-series and bar charts; this module derives
their series from recorded spans and renders the reproduced counterparts
as ASCII so benchmark results are inspectable without any plotting
dependency (the repository is NumPy-only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.observe import Span

__all__ = ["running_series", "cumulative_series", "ascii_timeseries", "ascii_bars"]


def running_series(spans: Iterable[Span], site: str) -> list[tuple[float, int]]:
    """Tasks running on ``site`` over time, as a (time, concurrency)
    staircase built from the ``worker.run`` spans opened there."""
    deltas: list[tuple[float, int]] = []
    for span in spans:
        if span.name == "worker.run" and span.site == site:
            deltas.append((span.start, +1))
            deltas.append((span.end, -1))
    deltas.sort()
    series: list[tuple[float, int]] = []
    level = 0
    for t, d in deltas:
        level += d
        series.append((t, level))
    return series


def cumulative_series(spans: Iterable[Span], dst: str) -> list[tuple[float, float]]:
    """Cumulative bytes delivered to site ``dst``: the ``bytes`` tags of the
    spans tagged ``dst=<dst>``, each counted at its span's end."""
    points = sorted(
        (span.end, float(span.tags["bytes"]))
        for span in spans
        if span.tags.get("dst") == dst
    )
    series: list[tuple[float, float]] = []
    total = 0.0
    for t, v in points:
        total += v
        series.append((t, total))
    return series


def ascii_timeseries(
    series: list[tuple[float, float]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 10,
    y_label: str = "",
    x_label: str = "t",
) -> str:
    """Render a (t, value) staircase as an ASCII chart.

    The series is resampled onto ``width`` columns (taking the last value
    at or before each column's time) and quantized onto ``height`` rows.
    """
    if not series:
        return f"{title}\n(no data)"
    t_min, t_max = series[0][0], series[-1][0]
    values = [v for _, v in series]
    v_min, v_max = min(values), max(values)
    if v_max == v_min:
        v_max = v_min + 1.0
    if t_max == t_min:
        t_max = t_min + 1.0

    columns: list[float] = []
    index = 0
    for col in range(width):
        t = t_min + (t_max - t_min) * col / (width - 1)
        while index + 1 < len(series) and series[index + 1][0] <= t:
            index += 1
        columns.append(series[index][1])

    grid = [[" "] * width for _ in range(height)]
    for col, value in enumerate(columns):
        row = int(round((value - v_min) / (v_max - v_min) * (height - 1)))
        grid[height - 1 - row][col] = "#"
        # Fill downward for a solid area look.
        for fill in range(height - row, height):
            if grid[fill][col] == " ":
                grid[fill][col] = "."

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{v_max:10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{v_min:10.3g} +" + "-" * width)
    lines.append(
        " " * 12 + f"{t_min:<10.3g}{x_label:^{max(width - 20, 1)}}{t_max:>10.3g}"
    )
    if y_label:
        lines.insert(1 if title else 0, f"[{y_label}]")
    return "\n".join(lines)


def ascii_bars(
    items: list[tuple[str, float]],
    *,
    title: str = "",
    width: int = 48,
    unit: str = "",
) -> str:
    """Render labeled magnitudes as horizontal bars."""
    if not items:
        return f"{title}\n(no data)"
    peak = max(value for _, value in items) or 1.0
    label_width = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        bar = "#" * max(int(round(value / peak * width)), 0)
        lines.append(f"{label:>{label_width}} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)
