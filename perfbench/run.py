"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload noop_storm --seed 1 --seconds 30 --trace 0

``--trace 0`` (a *timed* run) installs no wrapper and no metrics registry,
runs one discarded warm-up round, then measured rounds until ``--seconds``
is spent, and prints the end-to-end metrics.  ``--trace 1`` (a *traced*
run) splits ``--seconds`` into three parts: an untraced run and a run at
twice the time scale, each in a fresh child process, then a run with every
layer boundary wrapped (``tracing.py``) in this process; it prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("noop_storm", "cross_site_data", "moldesign_campaign")


#: name -> unit, for the timed run (the JSON line carries exactly these).
END_TO_END = {
    "makespan_s": "nominal_s",
    "tasks_per_s": "1/nominal_s",
    "lifetime_p50_s": "nominal_s",
    "lifetime_p90_s": "nominal_s",
    "wall_s": "s",
    "cpu_ms_per_task": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed by name with the timed run but not in its JSON line: they are
#: zero (failed_frac) or undefined (the moldesign-only two) on some
#: workloads.  ``failed``/``attempted`` in the JSON line carry failed_frac.
REPORTED = {
    "failed_frac": "ratio",
    "ml_makespan_s": "nominal_s",
    "cpu_utilization": "ratio",
}

BOUNDARY_NAMES = (
    "core.send_request", "core.get_result", "core.get_task", "core.send_result",
    "faas.client.submit", "faas.cloud.submit", "faas.cloud.submit_batch",
    "faas.cloud.fetch_tasks", "faas.cloud.report_result",
    "faas.cloud.report_results", "faas.cloud.next_completed",
    "faas.cloud.heartbeat", "tenancy.router", "batch.add", "batch.take",
    "bus.publish", "bus.receive", "serialize.serialize", "serialize.deserialize",
    "durable.append", "proxystore.put", "proxystore.get", "proxystore.prefetch",
    "transfer.submit", "transfer.wait", "resources.submit", "net.kv", "net.fs",
    "apps.simulate", "apps.train", "apps.infer",
)

#: name -> unit, for the traced run (the JSON line carries exactly these).
PER_LAYER = {
    **{
        f"{boundary}.{kind}": unit
        for boundary in BOUNDARY_NAMES
        for kind, unit in (("calls", "count"), ("self_nominal_s", "nominal_s"),
                           ("self_cpu_s", "s"))
    },
    "faas.tasks_per_submit_call": "ratio",
    "faas.tasks_per_fetch": "ratio",
    "faas.results_per_report": "ratio",
    "faas.api_calls_per_task": "ratio",
    "bus.envelopes_per_receive": "ratio",
    "proxystore.cache_hit_ratio": "ratio",
    "tenancy.shard_load_ratio": "ratio",
    "durable.bytes_per_task": "bytes/task",
    "transfer.bytes": "bytes",
    "executions_per_task": "ratio",
    "core.client_to_server_p50_s": "nominal_s",
    "faas.server_to_worker_p50_s": "nominal_s",
    "faas.worker_to_server_p50_s": "nominal_s",
    "core.notification_p50_s": "nominal_s",
    "serialize.serialization_p50_s": "nominal_s",
    "resources.on_worker_p50_s": "nominal_s",
    "proxystore.resolve_inputs_p50_s": "nominal_s",
    "proxystore.resolve_value_p50_s": "nominal_s",
    "resources.cpu_idle_gap_p50_s": "nominal_s",
    "client.retries": "count",
    "client.throttled": "count",
    "bus.redeliveries": "count",
    "observe.trace_overhead_frac": "ratio",
    "cpu_busy_frac": "ratio",
    "scale_sensitivity": "ratio",
    "threads_alive_after_shutdown": "count",
    "time_scale": "s/nominal_s",
}

#: Result-ledger medians: metric -> Result attribute.
LEDGER = {
    "core.client_to_server_p50_s": "comm_client_to_server",
    "faas.server_to_worker_p50_s": "comm_server_to_worker",
    "faas.worker_to_server_p50_s": "comm_worker_to_server",
    "core.notification_p50_s": "notification_latency",
    "serialize.serialization_p50_s": "time_serialization",
    "resources.on_worker_p50_s": "time_on_worker",
    "proxystore.resolve_inputs_p50_s": "dur_resolve_proxies",
    "proxystore.resolve_value_p50_s": "dur_resolve_value",
}

DETAIL_TAG = "perfbench-detail"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def threads_after_shutdown(grace_s: float = 1.0) -> int:
    """Threads other than the main one still alive ``grace_s`` after the
    last rig was shut down (each gets a share of the grace to finish)."""
    deadline = time.perf_counter() + grace_s
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(max(0.0, deadline - time.perf_counter()))
    return sum(
        1 for t in threading.enumerate() if t is not threading.main_thread() and t.is_alive()
    )


def run_rounds(workload: str, seed: int, seconds: float, on_round=None) -> list:
    """Measured rounds (at least one) until the next would end past ``seconds``."""
    import workloads

    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workloads.ROUNDS[workload](seed, len(rounds)))
        if on_round is not None:
            on_round()
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rounds


def summarize(rounds: list, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (median over rounds; lifetimes pooled; set-up
    also over ``setups``) and the extra readings printed beside them."""
    lifetimes = sorted(v for r in rounds for v in r.lifetimes)
    p90 = statistics.quantiles(lifetimes, n=10)[8] if len(lifetimes) >= 2 else 0.0
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "makespan_s": _median(r.makespan_s for r in rounds),
        "tasks_per_s": _median(r.tasks_per_s for r in rounds),
        "lifetime_p50_s": _median(lifetimes),
        "lifetime_p90_s": p90,
        "wall_s": _median(r.wall_s for r in rounds),
        "cpu_ms_per_task": _median(1e3 * _ratio(r.cpu_s, r.completed) for r in rounds),
        "setup_s": _median([r.setup_s for r in rounds] + setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": _ratio(failed, attempted),
        "ml_makespan_s": _median(r.extra.get("ml_makespan_s") for r in rounds),
        "cpu_utilization": _median(r.extra.get("cpu_utilization") for r in rounds),
        "lifetime_samples": len(lifetimes),
        "lifetime_beyond_p90": sum(1 for v in lifetimes if v > p90),
        "rounds": len(rounds),
        "setup_samples": len(rounds) + len(setups),
        "cpu_busy_frac": _ratio(
            sum(r.cpu_s for r in rounds), sum(r.cpu_window_s for r in rounds)
        ),
    }
    if any("molecules_found" in r.extra for r in rounds):
        extra["molecules_found"] = [r.extra["molecules_found"] for r in rounds]
    return metrics, extra


def verdict(rounds: list) -> dict:
    errors = [e for r in rounds for e in r.errors]
    for error in errors[:10]:
        print(f"CHECK FAILED: {error}")
    if sum(len(r.lifetimes) for r in rounds) < 100:
        errors.append("the run completed fewer than 100 tasks")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")


def assert_untraced() -> None:
    """Timed runs must run with no wrapper and no metrics registry."""
    import tracing
    from repro.observe import get_metrics, get_tracer

    if tracing.installed() or get_metrics() is not None or get_tracer() is not None:
        raise RuntimeError("a timed run found tracing or metrics installed")


def timed(workload: str, seed: int, seconds: float, scale: float) -> dict:
    import workloads
    from repro.net.clock import reset_clock

    reset_clock(scale)
    setups = workloads.warmup(workload, seed)
    assert_untraced()
    rounds = run_rounds(workload, seed, seconds, on_round=assert_untraced)
    threads = threads_after_shutdown()
    metrics, extra = summarize(rounds, setups)
    extra["threads_alive_after_shutdown"] = threads
    extra["time_scale"] = scale
    print(f"workload {workload}  seed {seed}  time_scale {scale}  rounds {extra['rounds']}")
    print_metrics(metrics, END_TO_END)
    for name, unit in REPORTED.items():
        if name == "failed_frac" or workload == "moldesign_campaign":
            print_metrics({name: extra[name]}, {name: unit})
        else:
            print(f"{name:40s} {'n/a':>16s} {unit}")
    for key in ("lifetime_samples", "lifetime_beyond_p90", "setup_samples",
                "cpu_busy_frac", "threads_alive_after_shutdown", "molecules_found"):
        if key in extra:
            print(f"{key:40s} {extra[key]}")
    detail = {"tasks_per_s": metrics["tasks_per_s"], "wall_s": metrics["wall_s"], **extra}
    print(f"{DETAIL_TAG} {json.dumps(detail)}")
    return {**verdict(rounds), "metrics": metrics}


def child(workload: str, seed: int, seconds: float, scale_factor: float) -> dict:
    """An untraced run in a fresh process; returns its detail line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:.3f}", "--trace", "0",
        "--scale-factor", str(scale_factor),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    detail = next(line for line in lines if line.startswith(DETAIL_TAG))
    result = json.loads(lines[-1])
    return {**json.loads(detail[len(DETAIL_TAG):]), "correct": result["correct"]}


def traced(workload: str, seed: int, seconds: float, scale: float) -> dict:
    import tracing
    import workloads
    from repro.net.clock import reset_clock
    from repro.observe import MetricsRegistry, set_metrics

    share = seconds / 3.0
    base = child(workload, seed, share, 1.0)
    double = child(workload, seed, share, 2.0)

    reset_clock(scale)
    workloads.warmup(workload, seed)
    registry = MetricsRegistry()
    set_metrics(registry)
    tracer = tracing.Tracer().install()
    try:
        rounds = run_rounds(workload, seed, share)
    finally:
        tracer.uninstall()
        set_metrics(None)
    threads = threads_after_shutdown()

    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for boundary in BOUNDARY_NAMES:
        row = totals[boundary]
        metrics[f"{boundary}.calls"] = row["calls"]
        metrics[f"{boundary}.self_nominal_s"] = row["self_nominal_s"]
        metrics[f"{boundary}.self_cpu_s"] = row["self_cpu_s"]
    tasks = sum(r.tasks_total for r in rounds)
    single, batch = totals["faas.cloud.submit"], totals["faas.cloud.submit_batch"]
    report, reports = totals["faas.cloud.report_result"], totals["faas.cloud.report_results"]
    hits = registry.counter_total("store.cache_hits")
    misses = registry.counter_total("store.cache_misses")
    shard_tasks: dict[str, int] = {}
    for r in rounds:
        for shard, n in r.extra.get("shard_tasks", {}).items():
            shard_tasks[shard] = shard_tasks.get(shard, 0) + n
    results = [res for r in rounds for res in r.results]
    metrics.update(
        {
            "faas.tasks_per_submit_call": _ratio(
                single["calls"] + batch["items"], single["calls"] + batch["calls"]
            ),
            "faas.tasks_per_fetch": _ratio(
                totals["faas.cloud.fetch_tasks"]["items"],
                totals["faas.cloud.fetch_tasks"]["calls"],
            ),
            "faas.results_per_report": _ratio(
                report["calls"] + reports["items"], report["calls"] + reports["calls"]
            ),
            "faas.api_calls_per_task": _ratio(registry.counter_total("faas.api_calls"), tasks),
            "bus.envelopes_per_receive": _ratio(
                totals["bus.receive"]["items"], totals["bus.receive"]["calls"]
            ),
            "proxystore.cache_hit_ratio": _ratio(hits, hits + misses),
            "tenancy.shard_load_ratio": (
                _ratio(max(shard_tasks.values()), min(shard_tasks.values()))
                if shard_tasks
                else 0.0
            ),
            "durable.bytes_per_task": _ratio(tracer.wal_bytes, tasks),
            "transfer.bytes": totals["transfer.wait"]["items"],
            "executions_per_task": _ratio(totals["resources.submit"]["calls"], tasks),
        }
    )
    for name, attribute in LEDGER.items():
        metrics[name] = _median(getattr(res, attribute) for res in results)
    metrics["resources.cpu_idle_gap_p50_s"] = _median(
        gap for r in rounds for gap in r.extra.get("cpu_idle_gaps", [])
    )
    metrics["client.retries"] = registry.counter_total("client.retries")
    metrics["client.throttled"] = registry.counter_total("client.throttled")
    metrics["bus.redeliveries"] = registry.counter_total("bus.redelivered")
    traced_wall = _median(r.wall_s for r in rounds)
    metrics["observe.trace_overhead_frac"] = _ratio(traced_wall, base["wall_s"]) - 1.0
    metrics["cpu_busy_frac"] = base["cpu_busy_frac"]
    metrics["scale_sensitivity"] = _ratio(double["tasks_per_s"], base["tasks_per_s"])
    metrics["threads_alive_after_shutdown"] = threads
    metrics["time_scale"] = scale

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {workload}  seed {seed}  time_scale {scale}  traced rounds {len(rounds)}")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print_metrics(metrics, PER_LAYER)
    outcome = verdict(rounds)
    outcome["correct"] = outcome["correct"] and base["correct"] and double["correct"]
    return {**outcome, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="multiply the workload's time scale (the traced run's 2x check)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout of the "
            "repository that holds src/repro",
            file=sys.stderr,
        )
        return 2
    # The workers are threads of this process; OpenBLAS's own spinning
    # threads on top of them made CPU per task vary between runs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scale = workloads.TIME_SCALES[args.workload] * args.scale_factor
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds, scale)
        metrics, units = out["metrics"], PER_LAYER
    else:
        out = timed(args.workload, args.seed, args.seconds, scale)
        metrics, units = out["metrics"], END_TO_END
    out["metrics"] = {
        name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
