"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload is a sequence of *rounds*.  A round builds a fresh rig (so
no journal, task ledger or cache state carries over from the previous
round), runs a fixed amount of work as a closed loop from one generator
thread, checks every output, and tears the rig down.  ``run.py`` runs one
discarded warm-up round per process, then as many measured rounds as fit
in the run's time budget, and reports medians over them.

All times a round reports are either *nominal* seconds (the scaled
simulator clock, ``repro.net.clock``) or *wall* seconds
(``time.perf_counter``); CPU is ``time.process_time`` (all threads).
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps import AppMethod, TopicPolicy, build_workflow
from repro.apps.moldesign import MolDesignConfig, run_moldesign_campaign
from repro.batch import BatchPolicy
from repro.durable import FileJournalBackend, Journal
from repro.exceptions import PayloadTooLargeError, ThrottledError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import build_paper_testbed
from repro.net.fs import FileSystem
from repro.resources import WorkerPool
from repro.serialize import Blob, serialize
from repro.tenancy import CloudRouter, HashRing, partition_key, tenant_scope

#: Wall seconds per nominal second for each workload.  Chosen so that the
#: nominal metrics repeat run to run (see README.md, "Time scales").
TIME_SCALES = {
    "noop_storm": 0.3,
    "cross_site_data": 0.04,
    "moldesign_campaign": 0.01,
}

#: Round index of the discarded per-process warm-up round.
WARMUP_INDEX = 9999

#: Wall-clock safety net for any single result (a hung task is a failure).
RESULT_TIMEOUT_WALL_S = 60.0

# -- noop_storm ---------------------------------------------------------------
NOOP_PAYLOAD_BYTES = 10_000
NOOP_WORKERS = 8
NOOP_WINDOW = 4 * NOOP_WORKERS
NOOP_TASKS = 300
NOOP_TENANTS = ("alpha", "beta")

# -- cross_site_data ----------------------------------------------------------
XS_MODEL_BYTES = 10_000_000
XS_CHUNK_BYTES = 5_000_000
XS_RESULT_BYTES = 2_000_000
XS_MODELS = 3
XS_WORKERS = 4
XS_TASKS = 100

# -- moldesign_campaign -------------------------------------------------------
MOLDESIGN_CONFIG = dict(n_molecules=1200, max_simulations=120)
#: A short campaign that never retrains, on the measured campaign's library
#: size: it warms the library build, the workflow and the simulation path,
#: and its set-up is the measured campaign's set-up.
MOLDESIGN_SHORT = dict(
    n_molecules=1200, max_simulations=9, n_initial=8, retrain_after=1000
)
#: Short campaigns run after the warm-up only to sample set-up time: one
#: measured campaign per 11 s of wall time gives too few samples.
MOLDESIGN_SETUP_PROBES = 3


@dataclass
class Round:
    """What one measured round observed."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: Nominal seconds, first submit to last result in the caller's hand.
    makespan_s: float = 0.0
    #: Nominal per-task lifetimes (submit to result in the caller's hand).
    lifetimes: list[float] = field(default_factory=list)
    #: Wall seconds of the measured phase.
    wall_s: float = 0.0
    #: Process CPU seconds (all threads) of the measured phase.
    cpu_s: float = 0.0
    #: Wall seconds over which ``cpu_s`` was taken.
    cpu_window_s: float = 0.0
    #: Wall seconds from the round's start to its first timed submit.
    setup_s: float = 0.0
    #: Tasks executed in the round, warm-up included (per-layer ratios
    #: divide the traced run's counts by this).
    tasks_total: int = 0
    errors: list[str] = field(default_factory=list)
    #: Colmena ``Result`` ledgers of the measured tasks (empty on noop_storm).
    results: list = field(default_factory=list)
    #: Workload-specific readings (ml_makespan_s, cpu_utilization, ...).
    extra: dict = field(default_factory=dict)

    @property
    def tasks_per_s(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s > 0 else 0.0


def echo(blob):
    """The noop_storm task body: hand the input straight back."""
    return blob


def transform(model, chunk):
    """The cross_site_data task body: read one shared model and one unique
    chunk (both arrive as proxies), return a result tagged with both."""
    return Blob(XS_RESULT_BYTES, tag=f"{chunk.tag}|{model.tag}")


# -- noop_storm ---------------------------------------------------------------
def _func_id_for(ring: HashRing, tenant: str, shard_id: str, seed: int) -> str:
    """A function id whose ``(tenant, function)`` partition lands on
    ``shard_id``, so the two tenants' submits load both shards."""
    for k in range(10_000):
        func_id = f"fn-echo-{seed}-{k}"
        if ring.node_for(partition_key(tenant, func_id)) == shard_id:
            return func_id
    raise RuntimeError(f"no function id maps {tenant!r} onto {shard_id}")


def _storm(clients, func_ids, endpoint_id, tags, rnd: Round | None):
    """Closed loop: keep :data:`NOOP_WINDOW` tasks outstanding, alternating
    clients.

    Returns per-task submit/done nominal times; checks every output and
    records failures on ``rnd`` when one is given."""
    n = len(tags)
    clock = get_clock()
    slots = threading.Semaphore(NOOP_WINDOW)
    submitted_at = [0.0] * n
    done_at = [None] * n
    resolutions = [0] * n
    futures = []

    def on_done(i, _future):
        done_at[i] = clock.now()
        resolutions[i] += 1
        slots.release()

    for i, tag in enumerate(tags):
        slots.acquire()
        k = i % len(clients)
        submitted_at[i] = clock.now()
        try:
            future = clients[k].submit(
                func_ids[k], endpoint_id, Blob(NOOP_PAYLOAD_BYTES, tag=tag)
            )
        except (ThrottledError, PayloadTooLargeError) as exc:
            slots.release()
            if rnd is not None:
                rnd.failed += 1
                rnd.errors.append(f"task {tag} refused: {type(exc).__name__}")
            continue
        future.add_done_callback(functools.partial(on_done, i))
        futures.append((i, future))
    for i, future in futures:
        try:
            value = future.result(timeout=RESULT_TIMEOUT_WALL_S)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            if rnd is not None:
                rnd.failed += 1
                rnd.errors.append(f"task {tags[i]} failed: {type(exc).__name__}: {exc}")
            continue
        if value != Blob(NOOP_PAYLOAD_BYTES, tag=tags[i]):
            if rnd is not None:
                rnd.errors.append(f"task {tags[i]} returned {value!r}")
    # A done-callback runs once per future; a second resolution would show
    # as a count of 2 (and set_result would have raised in the client).
    if rnd is not None:
        twice = [tags[i] for i in range(n) if resolutions[i] > 1]
        if twice:
            rnd.errors.append(f"{len(twice)} futures resolved more than once")
    return submitted_at, done_at


def _fresh_heap() -> None:
    """Collect the previous round's garbage before this round's timers
    start, so no round's set-up pays for another's collection."""
    gc.collect()


def noop_storm_round(seed: int, index: int, n_tasks: int = NOOP_TASKS) -> Round:
    rnd = Round()
    _fresh_heap()
    wall0 = time.perf_counter()
    testbed = build_paper_testbed(seed=seed + index)
    auth = AuthServer()
    identity = auth.register_identity("perfbench", "anl")
    wal = FileSystem(f"perfbench-wal-{index}")
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        n_shards=2,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
    )
    ring = HashRing(router.shard_ids)
    clients, func_ids = [], []
    for tenant, shard_id in zip(NOOP_TENANTS, router.shard_ids):
        router.create_tenant(tenant)
        token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope(tenant)})
        func_ids.append(
            router.register_function(
                token,
                serialize(echo),
                tenant=tenant,
                name="echo",
                func_id=_func_id_for(ring, tenant, shard_id, seed),
            )
        )
        clients.append(
            FaasClient(
                router, token, site=testbed.theta_login, tenant=tenant, batch=BatchPolicy()
            )
        )
    pool = WorkerPool(testbed.theta_compute, NOOP_WORKERS, name=f"storm-{index}")
    endpoint = FaasEndpoint(
        "theta",
        router,
        auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login,
        pool,
        uplink_batching=True,
    ).start()
    try:
        with at_site(testbed.theta_login):
            # Per-rig warm-up: settles leases, subscriptions and batch holds.
            warm = [f"w{index}-{i}" for i in range(NOOP_WINDOW)]
            _storm(clients, func_ids, endpoint.endpoint_id, warm, None)
            rnd.setup_s = time.perf_counter() - wall0
            tags = [f"{index}-{i}" for i in range(n_tasks)]
            wall1, cpu1 = time.perf_counter(), time.process_time()
            submitted_at, done_at = _storm(clients, func_ids, endpoint.endpoint_id, tags, rnd)
            rnd.wall_s = rnd.cpu_window_s = time.perf_counter() - wall1
            rnd.cpu_s = time.process_time() - cpu1
    finally:
        for client in clients:
            client.close()
        endpoint.stop()
    finished = [(s, d) for s, d in zip(submitted_at, done_at) if d is not None]
    rnd.attempted = n_tasks
    rnd.completed = len(finished)
    rnd.tasks_total = n_tasks + NOOP_WINDOW
    rnd.lifetimes = [d - s for s, d in finished]
    if finished:
        rnd.makespan_s = max(d for _, d in finished) - min(submitted_at)
    per_shard: dict[str, int] = {shard_id: 0 for shard_id in router.shard_ids}
    for record in router.task_records():
        per_shard[record.task_id.split("-")[1]] += 1
    rnd.extra["shard_tasks"] = per_shard
    return rnd


# -- cross_site_data ----------------------------------------------------------
def cross_site_round(seed: int, index: int, n_tasks: int = XS_TASKS) -> Round:
    clock = get_clock()
    rnd = Round()
    _fresh_heap()
    wall0 = time.perf_counter()
    testbed = build_paper_testbed(seed=seed + index)
    handle = build_workflow(
        "funcx+globus",
        testbed,
        [AppMethod(transform, resource="gpu", topic="data")],
        {"data": TopicPolicy(locality="cross", threshold=10_000)},
        n_cpu_workers=1,
        n_gpu_workers=XS_WORKERS,
        run_id=f"xs{seed}r{index}",
    )
    # Every model serves the same share of tasks; the seed sets the order.
    rng = np.random.default_rng([seed, index])
    picks = [int(m) for m in rng.permutation([i % XS_MODELS for i in range(n_tasks)])]
    with handle:
        store = handle.stores["cross"]
        queues = handle.queues
        with at_site(testbed.theta_login):
            # Per-rig warm-up on its own model object, so the measured
            # models below still start cold at the GPU site.
            warm_model = store.proxy(Blob(XS_MODEL_BYTES, tag="model-warm"))
            for i in range(XS_WORKERS):
                queues.send_request(
                    "transform",
                    args=(warm_model, Blob(XS_CHUNK_BYTES, tag=f"warm-{i}")),
                    topic="data",
                )
            for _ in range(XS_WORKERS):
                warm = queues.get_result(
                    "data", timeout=RESULT_TIMEOUT_WALL_S / clock.time_scale
                )
                if warm is None or not warm.success:
                    rnd.errors.append("warm-up task failed")
                else:
                    warm.access_value()
            # The shared, pre-proxied models of this round.
            models = [
                store.proxy(Blob(XS_MODEL_BYTES, tag=f"model-{m}")) for m in range(XS_MODELS)
            ]
            rnd.setup_s = time.perf_counter() - wall0
            wall1, cpu1 = time.perf_counter(), time.process_time()
            expected: dict[str, str] = {}

            def send(i: int) -> None:
                chunk = Blob(XS_CHUNK_BYTES, tag=f"chunk-{index}-{i}")
                result = queues.send_request(
                    "transform", args=(models[picks[i]], chunk), topic="data"
                )
                expected[result.task_id] = f"{chunk.tag}|model-{picks[i]}"

            sent = 0
            while sent < min(XS_WORKERS, n_tasks):
                send(sent)
                sent += 1
            received = 0
            while received < sent:
                result = queues.get_result(
                    "data", timeout=RESULT_TIMEOUT_WALL_S / clock.time_scale
                )
                if result is None:
                    rnd.failed += sent - received
                    rnd.errors.append(f"{sent - received} tasks timed out")
                    break
                received += 1
                if not result.success:
                    rnd.failed += 1
                    rnd.errors.append(f"task {result.task_id} failed: {result.error}")
                else:
                    value = result.access_value()
                    want = expected.get(result.task_id)
                    if value.tag != want or value.nbytes != XS_RESULT_BYTES:
                        rnd.errors.append(f"task {result.task_id}: {value!r}, want {want}")
                    rnd.results.append(result)
                if sent < n_tasks:
                    send(sent)
                    sent += 1
            rnd.wall_s = rnd.cpu_window_s = time.perf_counter() - wall1
            rnd.cpu_s = time.process_time() - cpu1
    rnd.attempted = n_tasks
    rnd.completed = len(rnd.results)
    rnd.tasks_total = n_tasks + XS_WORKERS
    rnd.lifetimes = [r.task_lifetime for r in rnd.results]
    if rnd.results:
        rnd.makespan_s = max(r.time_value_accessed for r in rnd.results) - min(
            r.time_created for r in rnd.results
        )
    return rnd


# -- moldesign_campaign -------------------------------------------------------
def _campaign(seed: int, index: int, overrides: dict):
    """One ``run_moldesign_campaign`` call; returns (round, outcome, config)."""
    clock = get_clock()
    rnd = Round()
    config = MolDesignConfig(seed=seed, **overrides)
    _fresh_heap()
    nominal0 = clock.now()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcome = run_moldesign_campaign(
        "funcx+globus", config, seed=seed + index, run_id=f"md{seed}r{index}"
    )
    wall_total = time.perf_counter() - wall0
    results = [r for topic in outcome.results.values() for r in topic]
    rnd.results = results
    first_submit = min(r.time_created for r in results)
    # Nominal time is scaled monotonic time, so this is exact wall time.
    rnd.setup_s = (first_submit - nominal0) * clock.time_scale
    rnd.wall_s = wall_total - rnd.setup_s
    # One call runs the whole campaign, so its CPU includes set-up.
    rnd.cpu_s = time.process_time() - cpu0
    rnd.cpu_window_s = wall_total
    rnd.attempted = len(results)
    rnd.failed = sum(1 for r in results if not r.success)
    rnd.completed = rnd.attempted - rnd.failed
    rnd.tasks_total = len(results)
    rnd.lifetimes = [r.task_lifetime for r in results if r.success]
    last = max((r.time_value_accessed or r.time_client_result_received) for r in results)
    rnd.makespan_s = last - first_submit
    return rnd, outcome, config


def moldesign_round(seed: int, index: int) -> Round:
    rnd, outcome, config = _campaign(seed, index, MOLDESIGN_CONFIG)
    if outcome.n_simulated != config.max_simulations:
        rnd.errors.append(
            f"simulated {outcome.n_simulated} molecules, budget {config.max_simulations}"
        )
    if outcome.n_failures:
        rnd.errors.append(f"{outcome.n_failures} task failures")
    if not outcome.ml_makespans:
        rnd.errors.append("no ML retrain + inference cycle completed")
    rnd.extra["ml_makespan_s"] = (
        float(np.median(outcome.ml_makespans)) if outcome.ml_makespans else 0.0
    )
    rnd.extra["cpu_utilization"] = outcome.cpu_utilization
    rnd.extra["molecules_found"] = outcome.n_found
    rnd.extra["cpu_idle_gaps"] = list(outcome.cpu_idle_gaps)
    return rnd


def warmup(workload: str, seed: int) -> list[float]:
    """One discarded round per process (the first in a process runs slow).

    Returns extra set-up samples taken after it: moldesign_campaign runs
    :data:`MOLDESIGN_SETUP_PROBES` short campaigns for them."""
    if workload == "noop_storm":
        noop_storm_round(seed, WARMUP_INDEX, n_tasks=2 * NOOP_WINDOW)
        return []
    if workload == "cross_site_data":
        cross_site_round(seed, WARMUP_INDEX, n_tasks=2 * XS_WORKERS)
        return []
    _campaign(seed, WARMUP_INDEX, MOLDESIGN_SHORT)
    return [
        _campaign(seed, WARMUP_INDEX + 1 + k, MOLDESIGN_SHORT)[0].setup_s
        for k in range(MOLDESIGN_SETUP_PROBES)
    ]


ROUNDS = {
    "noop_storm": noop_storm_round,
    "cross_site_data": cross_site_round,
    "moldesign_campaign": moldesign_round,
}
