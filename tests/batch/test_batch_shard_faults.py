"""Shard-outage faults reach the batched submit path.

The router runs the ``cloud.shard.drop`` / ``cloud.shard.crash`` hooks for
every shard group of a ``submit_batch``, per member in item order; the
first fire refuses the whole sub-batch with a retryable throttle that the
batching client backs off on and re-sends under the same chaos keys.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchPolicy
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.durable import FileJournalBackend, Journal
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.net.context import at_site
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.tenancy import CloudRouter

N_TASKS = 12


def _add(a, b):
    return a + b


@pytest.mark.parametrize(
    ("hook", "mode", "counter"),
    [
        ("cloud.shard.drop", "shard_outage", "cloud.shard_outages"),
        ("cloud.shard.crash", "shard_crash", "cloud.shard_crashes"),
    ],
)
def test_shard_faults_fire_on_batched_submits(testbed, hook, mode, counter):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    # The chaos matrix's spec for the mode, at rate 1.0 so the fires do not
    # depend on which content digests the rate selects.
    injector = FaultInjector(
        FaultPlan.build(0, (FaultSpec(hook, mode, rate=1.0, max_fires=2),))
    )
    set_injector(injector)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    wal = FileSystem("batch-shard-wal", op_latency=1e-3)
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
    pool = WorkerPool(testbed.theta_compute, 4, name=f"{mode}-pool")
    endpoint = FaasEndpoint("theta", router, token, testbed.theta_login, pool).start()
    client = FaasClient(
        router,
        token,
        site=testbed.theta_login,
        batch=BatchPolicy(max_batch=64, flush_deadline=600.0, min_hold=600.0),
    )
    try:
        with at_site(testbed.theta_login):
            futures = [client.run(_add, endpoint.endpoint_id, i, 10) for i in range(N_TASKS)]
            client.flush_batches()
        assert [f.result(timeout=60) for f in futures] == [i + 10 for i in range(N_TASKS)]
    finally:
        client.close()
        endpoint.stop()
        set_injector(None)
    fires = injector.fire_count(hook=hook)
    assert fires >= 1
    assert metrics.counter_total(counter) == fires
    # Every future resolved exactly once: each task was admitted once (the
    # refused sub-batches never reached a shard) and executed once.
    records = router.task_records()
    assert len(records) == N_TASKS
    assert all(r.status.terminal for r in records)
    assert metrics.counter_total("endpoint.executions") == N_TASKS
    assert metrics.counter_total("client.retries") == 0
    assert metrics.counter_total("client.throttled") >= fires
