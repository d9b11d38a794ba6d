"""Benchmark support: span-derived figure series and paper-vs-measured
reporting."""

from repro.bench.plotting import (
    ascii_bars,
    ascii_timeseries,
    cumulative_series,
    running_series,
)
from repro.bench.reporting import Comparison, ReportTable, summarize

__all__ = [
    "cumulative_series",
    "running_series",
    "Comparison",
    "ReportTable",
    "summarize",
    "ascii_bars",
    "ascii_timeseries",
]
