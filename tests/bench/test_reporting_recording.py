"""Tests for the benchmark support modules (span series, report tables)."""

import pytest

from repro.bench.plotting import cumulative_series, running_series
from repro.bench.reporting import Comparison, ReportTable, percentile, summarize
from repro.observe import Span


def _span(name, start, end, *, site=None, **tags):
    return Span(name, trace_id="t", start=start, end=end, site=site, tags=tags)


# -- span series -------------------------------------------------------------


def test_running_series():
    spans = [
        _span("worker.run", 1.0, 3.0, site="a"),
        _span("worker.run", 2.0, 4.0, site="a"),
        _span("worker.run", 1.5, 2.5, site="b"),  # another site
        _span("htex.dispatch", 0.5, 5.0, site="a"),  # not a worker span
    ]
    series = running_series(spans, "a")
    assert series == [(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 0)]


def test_cumulative_series():
    spans = [
        _span("htex.dispatch", 0.0, 1.0, bytes=10, dst="a"),
        _span("proxy.resolve", 2.5, 3.0, bytes=5, dst="a"),
        _span("result.download", 1.0, 2.0, bytes=100, dst="b"),
        _span("worker.run", 0.0, 2.0, site="a"),  # moved no bytes
    ]
    series = cumulative_series(spans, "a")
    assert series == [(1.0, 10.0), (3.0, 15.0)]


# -- reporting ---------------------------------------------------------------------


def test_summarize_and_percentile():
    stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["count"] == 5
    assert stats["median"] == 3.0
    assert stats["mean"] == 3.0
    assert stats["p40"] == pytest.approx(2.6)
    assert stats["p60"] == pytest.approx(3.4)
    empty = summarize([])
    assert empty["count"] == 0
    assert percentile([], 0.5) != percentile([], 0.5)  # NaN
    assert percentile([7.0], 0.9) == 7.0


def test_comparison_verdicts():
    assert Comparison("a", "p", "m").verdict() == "-"
    assert Comparison("a", "p", "m", holds=True).verdict() == "OK"
    assert Comparison("a", "p", "m", holds=False).verdict() == "DIVERGES"


def test_report_table_render_and_all_hold():
    table = ReportTable("Demo")
    table.add("metric one", "10x", "12x", holds=True)
    table.add("informational", "-", "42")
    table.note("a note")
    text = table.render()
    assert "Demo" in text
    assert "metric one" in text
    assert "OK" in text
    assert "note: a note" in text
    assert table.all_hold

    table.add("bad", "yes", "no", holds=False)
    assert not table.all_hold
    assert "DIVERGES" in table.render()


def test_report_table_empty_renders():
    table = ReportTable("Empty")
    assert "Empty" in table.render()
