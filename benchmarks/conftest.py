"""Benchmark harness fixtures.

Benchmarks run the simulator at a small time scale (1 nominal second =
4 ms wall) and write their paper-vs-measured tables to
``benchmarks/results/`` as well as stdout.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.apps.environment import clear_software
from repro.batch.reactor import reset_reactor
from repro.chaos.plan import set_injector
from repro.net.clock import reset_clock
from repro.observe import set_metrics, set_tracer
from repro.proxystore.store import clear_store_registry

BENCH_TIME_SCALE = 0.004

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def bench_state():
    reset_reactor()
    reset_clock(BENCH_TIME_SCALE)
    clear_store_registry()
    clear_software()
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    yield
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    clear_store_registry()
    clear_software()


@pytest.fixture
def report_sink():
    """Write a rendered report table to the results directory and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def sink(name: str, table) -> None:
        text = table.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text + "\n")

    return sink
