"""Tests for the environment registry and workflow wiring."""

import pytest

from repro.apps import (
    AppMethod,
    TopicPolicy,
    build_workflow,
    clear_software,
    get_software,
    register_software,
    unregister_software,
)
from repro.apps.common import steer
from repro.core.task_server import FuncXTaskServer, ParslTaskServer
from repro.exceptions import WorkflowError
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics


def _noop():
    return None


# -- environment registry ------------------------------------------------------


def test_register_and_get():
    register_software("tool", {"v": 1})
    assert get_software("tool") == {"v": 1}


def test_duplicate_requires_replace():
    register_software("tool", 1)
    with pytest.raises(WorkflowError):
        register_software("tool", 2)
    register_software("tool", 2, replace=True)
    assert get_software("tool") == 2


def test_missing_software_raises():
    with pytest.raises(WorkflowError):
        get_software("ghost")


def test_unregister_and_clear():
    register_software("a", 1)
    unregister_software("a")
    with pytest.raises(WorkflowError):
        get_software("a")
    register_software("b", 2)
    clear_software()
    with pytest.raises(WorkflowError):
        get_software("b")


# -- AppMethod / TopicPolicy validation ---------------------------------------------


def test_app_method_validates_resource():
    with pytest.raises(WorkflowError):
        AppMethod(_noop, resource="tpu", topic="t")


def test_topic_policy_validates_locality():
    with pytest.raises(WorkflowError):
        TopicPolicy(locality="nearby")


# -- best-effort steering ----------------------------------------------------------


class _Steering:
    def __init__(self, fail):
        self.fail = fail
        self.calls = []

    def set_ratio(self, weights, *, reason):
        self.calls.append((weights, reason))
        if self.fail:
            raise RuntimeError("scheduler unavailable")


def test_steer_applies_weights_and_counts_failures():
    metrics = MetricsRegistry()
    set_metrics(metrics)
    ok = _Steering(fail=False)
    steer(ok, (0.25, 0.75), thinker="t", reason="retrain")
    assert ok.calls == [({"cpu": 0.25, "gpu": 0.75}, "retrain")]

    broken = _Steering(fail=True)
    steer(broken, (1.0, 0.0), thinker="t", reason="batch done")  # must not raise
    steer(None, (1.0, 0.0), thinker="t", reason="no policy")  # no-op
    assert metrics.counter_total("thinker.steering_errors") == 1
    assert (
        metrics.counter("thinker.steering_errors", thinker="t", reason="batch done").value
        == 1
    )


# -- build_workflow ---------------------------------------------------------------------


METHODS = [AppMethod(_noop, resource="cpu", topic="work")]
POLICIES = {"work": TopicPolicy(locality="local", threshold=1000)}


def test_unknown_config_rejected(testbed):
    with pytest.raises(WorkflowError):
        build_workflow("slurm", testbed, METHODS, POLICIES)


def test_missing_topic_policy_rejected(testbed):
    with pytest.raises(WorkflowError):
        build_workflow(
            "parsl",
            testbed,
            [AppMethod(_noop, resource="cpu", topic="unknown-topic")],
            POLICIES,
        )


def test_parsl_config_has_no_stores(testbed):
    handle = build_workflow(
        "parsl", testbed, METHODS, POLICIES, n_cpu_workers=1, n_gpu_workers=1
    )
    assert handle.stores == {}
    assert isinstance(handle.task_server, ParslTaskServer)
    assert handle.transfer_service is None


def test_parsl_redis_config_has_both_stores(testbed):
    handle = build_workflow(
        "parsl+redis",
        testbed,
        METHODS,
        {"work": TopicPolicy(locality="cross", threshold=1000)},
        n_cpu_workers=1,
        n_gpu_workers=1,
    )
    assert set(handle.stores) == {"local", "cross"}
    assert handle.stores["cross"].connector.kind == "redis"
    assert handle.stores["local"].connector.kind == "file"


def test_funcx_globus_config_structure(testbed):
    handle = build_workflow(
        "funcx+globus",
        testbed,
        METHODS,
        {"work": TopicPolicy(locality="cross", threshold=1000)},
        n_cpu_workers=1,
        n_gpu_workers=1,
    )
    try:
        assert isinstance(handle.task_server, FuncXTaskServer)
        assert handle.stores["cross"].connector.kind == "globus"
        assert handle.transfer_service is not None
        assert len(handle.endpoints) == 2
    finally:
        for endpoint in handle.endpoints:
            endpoint.stop()
        handle.transfer_service.stop()
        for store in handle.stores.values():
            store.close()


def test_workflow_with_batch_scheduler_queues_first(testbed):
    """Pilot-job provisioning waits in the batch queue before workers run."""
    from repro.net.clock import get_clock
    from repro.net.topology import FixedLatency

    handle = build_workflow(
        "parsl",
        testbed,
        METHODS,
        POLICIES,
        n_cpu_workers=1,
        n_gpu_workers=1,
        use_batch_scheduler=True,
        batch_queue_delay=FixedLatency(5.0),
    )
    clock = get_clock()
    start = clock.now()
    with handle:
        startup = clock.now() - start
        with at_site(testbed.theta_login):
            handle.queues.send_request("_noop", topic="work")
            result = handle.queues.get_result("work", timeout=60)
        assert result is not None and result.success
    assert startup >= 5.0  # the batch queue wait happened before work ran


@pytest.mark.parametrize("config", ["parsl", "parsl+redis", "funcx+globus"])
def test_workflow_round_trip_each_config(testbed, config):
    handle = build_workflow(
        config, testbed, METHODS, POLICIES, n_cpu_workers=1, n_gpu_workers=1,
    )
    with handle:
        with at_site(testbed.theta_login):
            handle.queues.send_request("_noop", topic="work")
            result = handle.queues.get_result("work", timeout=60)
        assert result is not None and result.success, result and result.error
