"""Tenancy control-plane benchmark — shard scaling, noisy neighbors, and
two campaigns as co-tenants of one sharded cloud.

The funcX web service the paper builds on is a multi-user fabric: many
campaigns share one AWS-hosted control plane.  ``repro.tenancy`` reproduces
that shape — a ``CloudRouter`` consistent-hashing ``(tenant, function)``
partitions over N ``CloudShard`` services, token-bucket rate limits and
quotas at the router, weighted-round-robin dequeue at every endpoint feed —
and this benchmark quantifies the three claims that make it worth having:

* **Shard scaling** — aggregate no-op submit throughput grows >= 1.5x from
  1 to 4 shards, because admission cost is serialized per shard;
* **Noisy-neighbor isolation** — a quiet tenant's p99 submit latency under
  a hot tenant's flood stays within 3x its solo baseline (the flood is
  absorbed by the hot tenant's token bucket, not by everyone's latency);
* **Co-tenancy** — the molecular-design and fine-tuning campaigns run
  unchanged as two tenants of one 2-shard cloud, losing no tasks even
  while ``shard_outage`` chaos restarts shards at admission.

Submit admission is a *nominal-time* cost (``faas_shard_service_time``), so
this benchmark runs at a coarser time scale than the rest of the harness
(1 nominal s = 20 ms wall): per-submit admission must materialize as a real
wall sleep rather than vanish below the clock's minimum-sleep floor.

Quick mode (``REPRO_TENANCY_QUICK=1``, used by the CI smoke job) keeps the
2-shard / 3-tenant storm and the noisy-neighbor assertion but shrinks the
task counts and skips the campaign co-tenancy section.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from common import noop_task
from repro.bench.reporting import ReportTable, percentile
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.exceptions import ThrottledError
from repro.faas import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import TaskSubmission
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.serialize import serialize
from repro.tenancy import CloudRouter, tenant_scope

QUICK = os.environ.get("REPRO_TENANCY_QUICK", "") not in ("", "0")

#: 1 nominal second = 20 ms wall: a 50 ms nominal admission is a 1 ms wall
#: sleep, comfortably above the clock's 50 us minimum-sleep floor.
TENANCY_TIME_SCALE = 0.02
#: Per-submit admission cost (nominal s) for the synthetic sections — heavy
#: enough that the serialized control-plane work, not Python overhead,
#: dominates the storm.
ADMISSION = 0.05

STORM_THREADS = 8 if QUICK else 16
STORM_PER_THREAD = 6 if QUICK else 8
SOLO_SUBMITS = 20 if QUICK else 40


def _constants() -> PaperConstants:
    return replace(PaperConstants(), faas_shard_service_time=ADMISSION)


def _submit_one(router, token, client_id, item, tenant="default") -> str:
    """Admit one task as a batch of one, raising its rejection."""
    [outcome] = router.submit_batch(token, client_id, [item], tenant=tenant)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _storm_throughput(n_shards: int) -> float:
    """Aggregate no-op submit throughput (submits / nominal s) with
    STORM_THREADS concurrent clients against an ``n_shards`` cloud."""
    testbed = build_paper_testbed(seed=3, constants=_constants())
    auth = AuthServer()
    identity = auth.register_identity("storm", "anl.gov")
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants,
        n_shards=n_shards,
    )
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    with at_site(testbed.faas_cloud):
        endpoint_id = router.register_endpoint(
            token, "storm-ep", testbed.theta_login
        )
        funcs = [
            router.register_function(token, serialize(noop_task), name=f"storm{i}")
            for i in range(2 * STORM_THREADS)
        ]
    payload = serialize(((), {}))
    clock = get_clock()
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        try:
            with at_site(testbed.faas_cloud):
                for i in range(STORM_PER_THREAD):
                    _submit_one(
                        router,
                        token,
                        f"client-{tid}",
                        TaskSubmission(funcs[(tid + i) % len(funcs)], endpoint_id, payload),
                    )
        except Exception as exc:  # surfaced below; threads must not die silently
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(STORM_THREADS)
    ]
    start = clock.now()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    elapsed = clock.now() - start
    assert not errors, errors
    total = STORM_THREADS * STORM_PER_THREAD
    assert len(router.task_records()) == total
    return total / elapsed


def _noisy_neighbor() -> dict:
    """Quiet tenant's p99 submit latency, solo vs under a hot flood."""
    testbed = build_paper_testbed(seed=5, constants=_constants())
    auth = AuthServer()
    identity = auth.register_identity("nn", "anl.gov")
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=2
    )
    # The hot tenant is rate-limited well below one shard's admission
    # capacity; the quiet tenant carries the higher dequeue weight.
    router.create_tenant("quiet", weight=3)
    router.create_tenant("hot", weight=1, rate=3.0, burst=1.0)
    quiet_token = auth.issue_token(
        identity, {SCOPE_COMPUTE, tenant_scope("quiet")}
    )
    hot_token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("hot")})
    with at_site(testbed.faas_cloud):
        endpoint_id = router.register_endpoint(token=quiet_token, name="nn-ep",
                                               site=testbed.theta_login)
        quiet_funcs = [
            router.register_function(
                quiet_token, serialize(noop_task), tenant="quiet", name=f"q{i}"
            )
            for i in range(4)
        ]
        hot_func = router.register_function(
            hot_token, serialize(noop_task), tenant="hot", name="flood"
        )
    payload = serialize(((), {}))
    clock = get_clock()

    def quiet_latencies(n: int) -> list[float]:
        out = []
        with at_site(testbed.faas_cloud):
            for i in range(n):
                t0 = clock.now()
                _submit_one(
                    router,
                    quiet_token,
                    "quiet-client",
                    TaskSubmission(quiet_funcs[i % len(quiet_funcs)], endpoint_id, payload),
                    tenant="quiet",
                )
                out.append(clock.now() - t0)
        return out

    solo = quiet_latencies(SOLO_SUBMITS)

    stop = threading.Event()

    def flood() -> None:
        with at_site(testbed.faas_cloud):
            while not stop.is_set():
                try:
                    _submit_one(
                        router,
                        hot_token,
                        "hot-client",
                        TaskSubmission(hot_func, endpoint_id, payload),
                        tenant="hot",
                    )
                except ThrottledError as exc:
                    # The funcX-client idiom: honor the throttle hint.  The
                    # bucket, not the shared admission lock, absorbs the flood.
                    clock.sleep(max(exc.retry_after, 0.05))

    flooders = [threading.Thread(target=flood, daemon=True) for _ in range(2)]
    for t in flooders:
        t.start()
    try:
        contended = quiet_latencies(SOLO_SUBMITS)
    finally:
        stop.set()
        for t in flooders:
            t.join(timeout=60)

    hot_usage = router.registry.get("hot").usage
    return {
        "solo_p99": percentile(sorted(solo), 0.99),
        "contended_p99": percentile(sorted(contended), 0.99),
        "hot_throttled": hot_usage.throttled,
        "hot_submits": hot_usage.submits,
    }


def _campaign_cotenancy() -> dict:
    """moldesign + finetuning as two tenants of one 2-shard cloud, with
    ``shard_outage`` chaos restarting shards at admission."""
    from repro.apps.finetuning import FineTuneConfig, run_finetuning_campaign
    from repro.apps.moldesign import MolDesignConfig, run_moldesign_campaign

    testbed = build_paper_testbed(seed=17)
    auth = AuthServer()
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=2
    )
    router.create_tenant("moldesign", weight=2)
    router.create_tenant("finetune", weight=1)
    injector = FaultInjector(
        FaultPlan.build(
            17, (FaultSpec("cloud.shard.drop", "shard_outage", rate=0.5,
                           max_fires=2),)
        )
    )
    set_injector(injector)
    try:
        mol = run_moldesign_campaign(
            "funcx+globus",
            MolDesignConfig(
                n_molecules=1200,
                n_initial=24,
                max_simulations=60,
                retrain_after=20,
                n_ensemble=3,
                inference_chunks=3,
            ),
            seed=17,
            testbed=testbed,
            join_timeout=400,
            faas_cloud=router,
            tenant="moldesign",
        )
        fin = run_finetuning_campaign(
            "funcx+globus",
            FineTuneConfig(
                n_waters=3,
                n_pretrain=200,
                target_new_structures=24,
                retrain_after=12,
                n_ensemble=3,
                uncertainty_batch=60,
                inference_batch=30,
                pretrain_epochs=25,
                train_epochs=20,
                n_rbf_centers=10,
            ),
            seed=17,
            testbed=testbed,
            join_timeout=400,
            faas_cloud=router,
            tenant="finetune",
        )
    finally:
        set_injector(None)
    records = router.task_records()
    return {
        "mol": mol,
        "fin": fin,
        "fires": injector.fire_count(),
        "n_tasks": len(records),
        "tenants_seen": {r.tenant for r in records},
        # Campaigns abandon a handful of queued/dispatched tasks when they
        # hit their science target and shut down — that happens chaos-free
        # too.  A *lost* task would surface as a FAILED record or as an
        # awaited result that never arrives (campaign failure).
        "failed": sum(1 for r in records if r.status.name == "FAILED"),
        "abandoned": sum(1 for r in records if not r.status.terminal),
    }


@pytest.mark.benchmark(group="tenancy")
def test_fig_tenancy_control_plane(benchmark, report_sink):
    state: dict = {}

    def run():
        reset_clock(TENANCY_TIME_SCALE)
        state["throughput"] = {}
        for n_shards in (1, 2, 4):
            reset_clock()  # re-zero between storms, same scale
            state["throughput"][n_shards] = _storm_throughput(n_shards)
        reset_clock()
        state["noisy"] = _noisy_neighbor()
        if not QUICK:
            # Campaigns do not depend on admission sleeps materializing, so
            # they run at the harness's usual (faster) scale.
            reset_clock(0.004)
            state["cotenancy"] = _campaign_cotenancy()
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ReportTable(
        "Tenancy — shard scaling, noisy-neighbor isolation, co-tenancy"
    )

    thr = state["throughput"]
    for n_shards in sorted(thr):
        table.add(
            f"submit storm throughput, {n_shards} shard(s)",
            "scales with shards",
            f"{thr[n_shards]:.0f} submits/s",
        )
    scaling = thr[4] / thr[1]
    table.add(
        "aggregate scaling 1 -> 4 shards",
        ">= 1.5x",
        f"{scaling:.2f}x",
        holds=scaling >= 1.5,
    )

    noisy = state["noisy"]
    ratio = noisy["contended_p99"] / max(noisy["solo_p99"], 1e-9)
    table.add(
        "quiet tenant p99 submit latency (solo vs flood)",
        "within 3x",
        f"{noisy['solo_p99'] * 1e3:.0f}ms vs {noisy['contended_p99'] * 1e3:.0f}ms "
        f"({ratio:.2f}x)",
        holds=ratio <= 3.0,
    )
    table.add(
        "hot tenant actually throttled during the flood",
        "> 0 throttles",
        f"{noisy['hot_throttled']} throttles over {noisy['hot_submits']} admits",
        holds=noisy["hot_throttled"] > 0,
    )

    if not QUICK:
        co = state["cotenancy"]
        mol, fin = co["mol"], co["fin"]
        table.add(
            "co-tenant campaigns: tasks lost under shard_outage",
            "0",
            f"0 failed of {co['n_tasks']} ({co['abandoned']} abandoned at "
            f"shutdown), {co['fires']} outage(s) injected",
            holds=co["failed"] == 0 and co["fires"] >= 1,
        )
        table.add(
            "co-tenant campaigns: task failures",
            "0",
            f"moldesign {mol.n_failures}, finetune {fin.n_failures}",
            holds=mol.n_failures == 0 and fin.n_failures == 0,
        )
        table.add(
            "campaigns still do science as tenants",
            "found > 0; RMSD improves",
            f"{mol.n_found} found; force RMSD "
            f"{fin.rmsd_before:.3f} -> {fin.rmsd_after:.3f}",
            holds=mol.n_found > 0 and fin.rmsd_after < fin.rmsd_before,
        )
        table.add(
            "both tenants shared one sharded control plane",
            "2 tenants",
            ", ".join(sorted(co["tenants_seen"])),
            holds=co["tenants_seen"] == {"moldesign", "finetune"},
        )
    else:
        table.note("quick mode: campaign co-tenancy skipped (CI smoke)")
    table.note(
        f"{STORM_THREADS} submitters x {STORM_PER_THREAD} submits, admission "
        f"{ADMISSION * 1e3:.0f}ms nominal, time scale {TENANCY_TIME_SCALE}"
    )

    report_sink("fig_tenancy", table)
    assert table.all_hold, "tenancy control-plane claims diverged; see table"
