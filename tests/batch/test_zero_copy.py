"""The zero-copy fast path: borrowed payloads skip the second hop."""

from __future__ import annotations

from repro.batch import BatchPolicy
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import (
    Blob,
    borrow,
    deserialize_cost,
    serialize,
    serialize_cost,
)


def _noop():
    return None


def test_borrow_marks_without_copying():
    payload = serialize(Blob(8 * 1024))
    borrowed = borrow(payload)
    assert borrowed.borrowed
    assert borrowed.data is payload.data
    assert borrowed.nominal_size == payload.nominal_size
    assert borrow(borrowed) is borrowed  # idempotent


def test_borrowed_costs_are_zero():
    assert serialize_cost(8 * 1024) > 0.0
    assert serialize_cost(8 * 1024, borrowed=True) == 0.0
    assert deserialize_cost(8 * 1024, borrowed=True) == 0.0


def _cloud(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(_noop))
    return cloud, token, endpoint_id, func_id


def test_store_tiers_borrowed_small_objects_inline(testbed):
    """A borrowed sub-20 kB payload rides the carrying message: the store
    files it inline (free) instead of paying the redis hop's second
    serialize/deserialize."""
    cloud, *_ = _cloud(testbed)
    payload = serialize(Blob(8 * 1024))  # redis band when not borrowed
    assert ":redis:" in f":{cloud.store.write(payload)}"
    assert ":inline:" in f":{cloud.store.write(borrow(payload))}"
    # Above the small-object threshold the bytes cannot ride the message;
    # borrowed or not, they take the s3 tier.
    big = serialize(Blob(64 * 1024))
    assert ":s3:" in f":{cloud.store.write(borrow(big))}"


def test_batching_client_borrows_small_payloads(testbed):
    """Whether a small payload rides inline is the sender's decision: a
    batching client's mid-band args skip the redis hop, an unbatched
    client's take it — through the same cloud ``submit_batch`` path."""
    cloud, token, endpoint_id, func_id = _cloud(testbed)
    arg = Blob(8 * 1024)  # mid-band: redis if copied
    batched = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        batch=BatchPolicy(max_batch=64, flush_deadline=600.0, min_hold=600.0),
    )
    plain = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        future = batched.submit(func_id, endpoint_id, arg)
        batched.flush_batches()
        assert "inline:" in cloud.task(future.task_id).args_locator
        single = plain.submit(func_id, endpoint_id, arg)
        assert "redis:" in cloud.task(single.task_id).args_locator
    finally:
        batched.close()
        plain.close()


def _echo_8k():
    return Blob(8 * 1024)


def test_lone_result_from_batching_endpoint_rides_inline(testbed):
    """A batching endpoint borrows even a lone drained result: one result
    is an uplink batch of one, and the inline decision is the sender's."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    cloud, token, endpoint_id, _ = _cloud(testbed)
    pool = WorkerPool(testbed.theta_compute, 1, name="zero-copy-uplink")
    endpoint = FaasEndpoint(
        "theta-batching", cloud, token, testbed.theta_login, pool, uplink_batching=True
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        future = client.run(_echo_8k, endpoint.endpoint_id)
        assert future.result(timeout=60) == Blob(8 * 1024)
    finally:
        client.close()
        endpoint.stop()
    assert "inline:" in cloud.task(future.task_id).result_locator
    assert metrics.counter_total("endpoint.uplink_batches") == 0
