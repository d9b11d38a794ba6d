"""Regressions for the two wait-budget defects fixed alongside resilience:

* ``RetryPolicy.max_elapsed`` is re-checked *after* the backoff sleep, so a
  long backoff can never launch a retry past the budget it was granted
  under;
* ``FaasCloud.fetch_tasks`` / ``next_completed_batch`` long-polls are deadline
  loops clamped to the remaining budget — spurious condition-variable
  wakeups (other endpoints' enqueues) neither cut the wait short nor
  stretch it past the timeout.
"""

from __future__ import annotations

import threading

import pytest

from repro.chaos.policy import RetryPolicy
from repro.exceptions import RetryExhaustedError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.resources import WorkerPool
from repro.serialize import serialize

from batch_of_one import submit_one


def _add(a, b):
    return a + b


def _fail():
    raise ValueError("remote boom")


def test_retries_left_checks_both_caps():
    policy = RetryPolicy(max_attempts=3, max_elapsed=5.0)
    assert policy.retries_left(0, elapsed=0.0)
    assert not policy.retries_left(2, elapsed=0.0)  # attempt cap
    assert not policy.retries_left(0, elapsed=5.0)  # budget cap
    assert RetryPolicy(max_attempts=3).retries_left(0, elapsed=1e9)  # no budget


def test_backoff_sleep_cannot_blow_the_elapsed_budget(testbed):
    """A 10 s backoff against a 5 s budget: the client must notice *after*
    sleeping that the budget lapsed and give up without resubmitting."""
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="budget-pool")
    endpoint = FaasEndpoint(
        "budget", cloud, token, testbed.theta_login, pool
    ).start()
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        retry_policy=RetryPolicy(
            max_attempts=10,
            base_delay=10.0,
            max_delay=10.0,
            jitter=0.0,
            max_elapsed=5.0,
        ),
    )
    try:
        with at_site(testbed.theta_login):
            future = client.run(_fail, endpoint.endpoint_id)
        with pytest.raises(RetryExhaustedError) as excinfo:
            future.result(timeout=120)
        assert excinfo.value.attempts == 1
        # The regression: pre-fix, the budget was only checked before the
        # sleep, so the task ran a second (budget-busting) attempt.
        assert len(cloud.task_records()) == 1
    finally:
        client.close()
        endpoint.stop()


@pytest.fixture
def noisy_cloud():
    """A cloud with a background submitter hammering a *different*
    endpoint's queue, so the shared condition variable fires constantly."""
    constants = PaperConstants(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=30.0)
    testbed = build_paper_testbed(seed=13, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    quiet = cloud.register_endpoint(token, "quiet", testbed.theta_login)
    busy = cloud.register_endpoint(token, "busy", testbed.theta_login)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
    stop = threading.Event()

    def hammer():
        with at_site(testbed.theta_login):
            for i in range(40):
                if stop.is_set():
                    return
                submit_one(cloud, token, "noise", func_id, busy, serialize(((i, i), {})))
                get_clock().sleep(0.25)

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    yield testbed, cloud, token, quiet
    stop.set()
    thread.join(timeout=10)


def test_fetch_long_poll_holds_its_deadline_under_spurious_wakeups(noisy_cloud):
    testbed, cloud, token, quiet = noisy_cloud
    clock = get_clock()
    started = clock.now()
    with at_site(testbed.theta_login):
        fetched = cloud.fetch_tasks(token, quiet, 10, timeout=3.0)
    elapsed = clock.now() - started
    assert fetched == []  # the noise belongs to the other endpoint
    # Every wakeup re-enters the wait with the *remaining* budget: the
    # poll neither returns early nor overshoots by a full interval.
    assert 3.0 <= elapsed < 4.5


def test_next_completed_holds_its_deadline_under_spurious_wakeups(noisy_cloud):
    testbed, cloud, token, quiet = noisy_cloud
    clock = get_clock()
    started = clock.now()
    assert cloud.next_completed_batch("lonely-client", 1, timeout=2.0) == []
    elapsed = clock.now() - started
    assert 2.0 <= elapsed < 3.5
