"""Self-test of the benchmark: its spec, its tracer and its coverage map.

    PYTHONPATH=src python -m pytest perfbench -q

The coverage test runs one short traced round of each workload and checks
the README's "predicted no change" column: a layer the map says a workload
bypasses must record zero calls there.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.batch.reactor import reset_reactor  # noqa: E402
from repro.net.clock import reset_clock  # noqa: E402
from repro.observe import MetricsRegistry, set_metrics  # noqa: E402
from repro.proxystore.store import clear_store_registry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_metrics_run_py_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert set(run.BOUNDARY_NAMES) == set(tracing.BOUNDARIES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture
def fresh(request):
    workload = request.param
    reset_reactor()
    reset_clock(workloads.TIME_SCALES[workload])
    clear_store_registry()
    yield workload
    clear_store_registry()


def _traced(workload: str):
    registry = MetricsRegistry()
    set_metrics(registry)
    tracer = tracing.Tracer().install()
    try:
        assert tracing.installed() > 0
        if workload == "noop_storm":
            rnd = workloads.noop_storm_round(3, 0, n_tasks=2 * workloads.NOOP_WINDOW)
        elif workload == "cross_site_data":
            rnd = workloads.cross_site_round(3, 0, n_tasks=3 * workloads.XS_WORKERS)
        else:
            rnd, _, _ = workloads._campaign(3, 0, workloads.MOLDESIGN_SHORT)
    finally:
        tracer.uninstall()
        set_metrics(None)
    assert tracing.installed() == 0
    assert not rnd.errors, rnd.errors
    return rnd, tracer.totals()


def _calls(totals: dict, prefix: str) -> int:
    return sum(row["calls"] for name, row in totals.items() if name.startswith(prefix))


@pytest.mark.parametrize("fresh", ["noop_storm"], indirect=True)
def test_noop_storm_bypasses_the_data_plane_and_colmena(fresh):
    rnd, totals = _traced(fresh)
    assert _calls(totals, "proxystore.") == 0
    assert _calls(totals, "transfer.") == 0
    assert _calls(totals, "core.") == 0
    # The layers it exists to load do see the work.
    for name in ("tenancy.router", "batch.add", "durable.append", "faas.cloud.submit_batch"):
        assert totals[name]["calls"] > 0, name
    # The item counters behind the batch-fill ratios see every task once.
    tasks = rnd.tasks_total
    assert totals["faas.cloud.submit_batch"]["items"] == tasks
    assert totals["faas.cloud.fetch_tasks"]["items"] == tasks
    reported = totals["faas.cloud.report_result"]["calls"]
    assert reported + totals["faas.cloud.report_results"]["items"] == tasks
    shard_tasks = rnd.extra["shard_tasks"]
    assert len(shard_tasks) == 2 and min(shard_tasks.values()) > 0, shard_tasks


@pytest.mark.parametrize("fresh", ["cross_site_data", "moldesign_campaign"], indirect=True)
def test_colmena_workloads_bypass_router_batching_and_wal(fresh):
    _, totals = _traced(fresh)
    assert totals["tenancy.router"]["calls"] == 0
    assert _calls(totals, "batch.") == 0
    assert totals["durable.append"]["calls"] == 0
    assert _calls(totals, "core.") > 0
    assert totals["proxystore.get"]["calls"] > 0
    if fresh == "moldesign_campaign":
        assert totals["apps.simulate"]["calls"] > 0
    else:
        assert totals["transfer.wait"]["calls"] > 0


def test_timed_guard_refuses_an_installed_tracer():
    tracer = tracing.Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            run.assert_untraced()
    finally:
        tracer.uninstall()
    run.assert_untraced()


def test_timed_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "noop_storm",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noop_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
