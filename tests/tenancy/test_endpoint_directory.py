"""One endpoint directory behind every shard.

The router hands all shards the same :class:`EndpointDirectory`, so a lease
outlives a shard crash and a lapse is seen by every shard, including one
rebuilt from its journal.  Each shard's sweep moves only its own task
records.  Driven through the router API directly (the
``tests/chaos/test_failover.py`` idiom), so every beat and lapse happens at
a known instant.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

from repro.durable import FileJournalBackend, Journal
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.faas.cloud import TaskStatus
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import serialize
from repro.tenancy import CloudRouter, HashRing, partition_key
from repro.tenancy.tenant import DEFAULT_TENANT

from batch_of_one import submit_one

# A lease is 30 nominal s (60 ms of wall time at the test time scale), so
# scheduler jitter between two beats 10 s apart cannot lapse it by accident.
LEASES = dict(endpoint_heartbeat_period=10.0, endpoint_lease_ttl=30.0)


def _add(a, b):
    return a + b


def _router(n_shards):
    constants = PaperConstants(**LEASES)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    wal = FileSystem("directory-wal", op_latency=1e-4)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        constants,
        n_shards=n_shards,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
    )
    return testbed, router, token


def _function_per_shard(router, token) -> dict[str, str]:
    """shard id -> a function registered on that shard."""
    ring = HashRing(router.shard_ids)
    funcs: dict[str, str] = {}
    for i in itertools.count():
        func_id = f"fn-probe-{i}"
        shard_id = ring.node_for(partition_key(DEFAULT_TENANT, func_id))
        if shard_id not in funcs:
            funcs[shard_id] = router.register_function(
                token, serialize(_add), func_id=func_id
            )
        if len(funcs) == len(router.shard_ids):
            return funcs


def _lapse(router, token, ep_a, ep_b):
    """``ep_a`` stops beating while ``ep_b`` keeps beating past the TTL;
    ``ep_b``'s beats sweep every shard."""
    for _ in range(4):
        get_clock().sleep(10.0)
        router.heartbeat(token, ep_b)
    assert not router.lease_valid(ep_a)
    assert router.lease_valid(ep_b)


@pytest.fixture
def pair():
    testbed, router, token = _router(2)
    ep_a = router.register_endpoint(
        token, "a", testbed.theta_login, failover_group="pair"
    )
    ep_b = router.register_endpoint(
        token, "b", testbed.theta_login, failover_group="pair"
    )
    router.heartbeat(token, ep_a)
    router.heartbeat(token, ep_b)
    funcs = _function_per_shard(router, token)
    return testbed, router, token, ep_a, ep_b, funcs


def test_lapse_after_a_shard_crash_fails_every_task_over(pair):
    """The rebuilt shard still sees ``a``'s lease, and its lapse."""
    testbed, router, token, ep_a, ep_b, funcs = pair
    with at_site(testbed.theta_login):
        task_ids = {
            shard_id: submit_one(
                router, token, "client", func_id, ep_a, serialize(((1, 2), {}))
            )
            for shard_id, func_id in sorted(funcs.items())
        }
        fetched = router.fetch_tasks(token, ep_a, 10, timeout=1.0)
    assert sorted(d.task_id for d in fetched) == sorted(task_ids.values())

    router.crash_shard("s0")
    assert router.lease_valid(ep_a)
    # The rebuilt shard re-leases its in-flight task; ``a`` takes it again.
    with at_site(testbed.theta_login):
        refetched = router.fetch_tasks(token, ep_a, 10, timeout=1.0)
    assert [d.task_id for d in refetched] == [task_ids["s0"]]

    _lapse(router, token, ep_a, ep_b)
    for task_id in task_ids.values():
        record = router.task(task_id)
        assert record.endpoint_id == ep_b
        assert record.status is TaskStatus.WAITING
        assert record.previous_endpoints == [ep_a]
    with at_site(testbed.theta_login):
        survivor = router.fetch_tasks(token, ep_b, 10, timeout=1.0)
    assert sorted(d.task_id for d in survivor) == sorted(task_ids.values())


def test_failover_survives_a_shard_crash(pair):
    """Failover moves are not journaled: replay puts the task back on the
    lapsed ``a``, and the rebuilt shard's first sweep moves it to ``b``."""
    testbed, router, token, ep_a, ep_b, funcs = pair
    with at_site(testbed.theta_login):
        task_id = submit_one(
            router, token, "client", funcs["s0"], ep_a, serialize(((1, 2), {}))
        )
        router.fetch_tasks(token, ep_a, 10, timeout=1.0)
    _lapse(router, token, ep_a, ep_b)
    assert router.task(task_id).endpoint_id == ep_b

    router.crash_shard("s0")
    with at_site(testbed.theta_login):
        survivor = router.fetch_tasks(token, ep_b, 10, timeout=1.0)
    assert [d.task_id for d in survivor] == [task_id]
    assert router.task(task_id).endpoint_id == ep_b


def test_lapse_without_survivor_requeues_in_flight_work_once(pair):
    """A lapse stays in the directory until ``a`` beats again, but the
    sweeps that keep seeing it requeue only what ``a`` fetched before its
    lease ran out: an agent still polling keeps what it fetched since."""
    testbed, router, token, ep_a, ep_b, funcs = pair
    router.release_lease(token, ep_b)  # no survivor: work stays on ``a``
    with at_site(testbed.theta_login):
        task_id = submit_one(
            router, token, "client", funcs["s1"], ep_a, serialize(((1, 2), {}))
        )
        router.fetch_tasks(token, ep_a, 10, timeout=1.0)
    get_clock().sleep(40.0)
    assert router.expire_leases() == [ep_a]
    record = router.task(task_id)
    assert (record.endpoint_id, record.status) == (ep_a, TaskStatus.WAITING)
    with at_site(testbed.theta_login):
        again = router.fetch_tasks(token, ep_a, 10, timeout=1.0)
    assert [d.task_id for d in again] == [task_id]
    assert router.expire_leases() == []
    assert router.task(task_id).status is TaskStatus.DISPATCHED
    assert router.task(task_id).requeues == 1


def test_lease_lapsing_between_beats_never_strands_work():
    """The lease runs out between every beat of a live agent.  Each lapse
    requeues its in-flight work with fresh doorbells, and the agent must
    still be handed that work when the doorbells arrive."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    constants = PaperConstants(endpoint_heartbeat_period=2.0, endpoint_lease_ttl=1.0)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    endpoint = FaasEndpoint(
        "flapping",
        cloud,
        token,
        testbed.theta_login,
        WorkerPool(testbed.theta_compute, 2, name="flapping-pool"),
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(12)
            ]
        assert [f.result(timeout=30) for f in futures] == [i + 1 for i in range(12)]
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("faas.lease_expiries") >= 1


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_counters_tick_once_per_event_whatever_the_shard_count(n_shards):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    testbed, router, token = _router(n_shards)
    ep = router.register_endpoint(token, "solo", testbed.theta_login)
    # Registration is directory state: no shard journals it.
    assert [router.shard(s).journal.appends for s in router.shard_ids] == [0] * n_shards
    for _ in range(3):
        router.heartbeat(token, ep)
    assert metrics.counter_total("faas.heartbeats") == 3
    get_clock().sleep(40.0)
    assert router.expire_leases() == [ep]
    assert router.expire_leases() == []
    assert metrics.counter_total("faas.lease_expiries") == 1


def test_concurrent_sweeps_reap_each_lapse_exactly_once():
    """Eight threads sweep four shards at once: every lapse is returned
    and counted once, never twice and never lost."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    testbed, router, token = _router(4)
    endpoints = [
        router.register_endpoint(token, f"e{i}", testbed.theta_login) for i in range(8)
    ]
    for ep in endpoints:
        router.heartbeat(token, ep)
    get_clock().sleep(40.0)
    reaped: list[str] = []
    threads = [
        threading.Thread(target=lambda: reaped.extend(router.expire_leases()))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(reaped) == sorted(endpoints)
    assert metrics.counter_total("faas.lease_expiries") == len(endpoints)
