"""The carry rule: a borrowed payload's bytes are charged on the leg of the
message that carries it, never on a leg of its own.

Every charge here is exact: the testbed's FaaS latencies are fixed, and the
endpoint/client under test run on a ledger clock that records each sleep on
the calling thread instead of sleeping.  The cloud keeps its own clock, so
store-tier charges (the redis hop an unborrowed payload takes) stay out of
the ledger — only the network legs the rule is about are counted.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.faas.cloud import TaskSubmission
from repro.net.clock import Clock
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.resources import WorkerPool
from repro.serialize import Blob, borrow, deserialize_cost, serialize

LEG = 0.028  # one-way cloud latency
API = 0.012  # server-side API handling per call
N = 8


def _echo(value):
    return value


class LedgerClock(Clock):
    """Records every nominal sleep per thread instead of sleeping."""

    def __init__(self) -> None:
        super().__init__(0.002)
        self._lock = threading.Lock()
        self._charged: dict[int, float] = defaultdict(float)

    def sleep(self, nominal_seconds: float) -> None:
        if nominal_seconds > 0:
            with self._lock:
                self._charged[threading.get_ident()] += nominal_seconds

    def take(self) -> float:
        """The calling thread's charges since the last ``take``."""
        with self._lock:
            return self._charged.pop(threading.get_ident(), 0.0)


class Rig:
    def __init__(self) -> None:
        constants = PaperConstants(
            cloud_latency=FixedLatency(LEG), faas_api_latency=FixedLatency(API)
        )
        self.testbed = build_paper_testbed(seed=3, constants=constants)
        self.bandwidth = constants.cloud_bandwidth
        self.clock = LedgerClock()
        auth = AuthServer()
        self.token = auth.issue_token(
            auth.register_identity("u", "anl"), {SCOPE_COMPUTE}
        )
        self.cloud = FaasCloud(
            self.testbed.faas_cloud, self.testbed.network, auth, constants
        )
        self.func_id = self.cloud.register_function(self.token, serialize(_echo))

    def args(self, borrowed: bool):
        payload = serialize(((Blob(8 * 1024),), {}))  # redis band if copied
        return borrow(payload) if borrowed else payload

    def submit(self, n: int, borrowed: bool, endpoint_id: str, client_id="c"):
        items = [
            TaskSubmission(self.func_id, endpoint_id, self.args(borrowed))
            for _ in range(n)
        ]
        return self.cloud.submit_batch(self.token, client_id, items)

    def endpoint(self, **kwargs) -> FaasEndpoint:
        pool = WorkerPool(self.testbed.theta_compute, 1, name="carry-pool")
        pool.start()
        return FaasEndpoint(
            "theta",
            self.cloud,
            self.token,
            self.testbed.theta_login,
            pool,
            clock=self.clock,
            heartbeats=False,
            use_bus=False,
            **kwargs,
        )


@pytest.fixture
def rig():
    return Rig()


@pytest.mark.parametrize("borrowed", [True, False], ids=["borrowed", "copied"])
def test_fetched_batch_pays_one_reply_leg(rig, borrowed):
    """N borrowed dispatches ride one fetch reply: the fetch's two legs plus
    their bytes.  Copied args each pay a download leg of their own."""
    endpoint = rig.endpoint()
    try:
        # Warm the function cache so the measured round is pure data path.
        rig.submit(1, borrowed, endpoint.endpoint_id)
        for dispatch in endpoint._fetch(timeout=0.0):
            endpoint._dispatch(dispatch)
        rig.submit(N, borrowed, endpoint.endpoint_id)
        rig.clock.take()
        dispatches = endpoint._fetch(timeout=0.0)
        for dispatch in dispatches:
            endpoint._dispatch(dispatch)
        charged = rig.clock.take()
    finally:
        endpoint.pool.stop()
    nbytes = rig.args(borrowed).nominal_size
    per_task = nbytes / rig.bandwidth + (0.0 if borrowed else LEG)
    assert len(dispatches) == N
    assert charged == pytest.approx(2 * LEG + N * per_task)


def _delivery(rig, n: int, borrowed: bool, *, attach_after_report=False):
    """Report ``n`` results for tasks a (notifier-less) client awaits and
    return (client, task ids, result payload)."""
    endpoint_id = rig.cloud.register_endpoint(
        rig.token, "ep", rig.testbed.theta_compute
    )
    client = FaasClient(
        rig.cloud,
        rig.token,
        site=rig.testbed.theta_login,
        clock=rig.clock,
        use_bus=False,
    )
    # Stop the notifier: this thread drives delivery, so its ledger holds
    # every download charge.
    client.kill()
    task_ids = rig.submit(n, borrowed, endpoint_id, client_id=client.client_id)
    result = serialize({"success": True, "value": Blob(8 * 1024)})
    if borrowed:
        result = borrow(result)
    futures = []
    if not attach_after_report:
        futures = [client.attach(t, endpoint_id=endpoint_id) for t in task_ids]
    rig.cloud.report_results(
        rig.token, endpoint_id, [(t, True, result) for t in task_ids]
    )
    rig.clock.take()
    if attach_after_report:
        # The crash window: a terminal task is delivered inline by attach.
        futures = [client.attach(t, endpoint_id=endpoint_id) for t in task_ids]
    return client, task_ids, result, futures


@pytest.mark.parametrize("borrowed", [True, False], ids=["borrowed", "copied"])
def test_one_doorbell_shares_one_download_leg(rig, borrowed):
    """N borrowed results behind one notification: one push, one download
    leg, their bytes, and a deserialize each.  Copied results still pay one
    download leg apiece."""
    client, task_ids, result, futures = _delivery(rig, N, borrowed)
    client._handle_completions(task_ids)
    charged = rig.clock.take()
    size = result.nominal_size
    legs = 1 if borrowed else N
    expected = LEG + legs * LEG + N * (size / rig.bandwidth + deserialize_cost(size))
    assert charged == pytest.approx(expected)
    assert [f.result(timeout=0) for f in futures] == [Blob(8 * 1024)] * N


def test_lone_borrowed_result_pays_what_it_always_paid(rig):
    """A lone completion is a batch of one: push + one full leg +
    deserialize — the charge of the old single-completion path."""
    client, _, result, [future] = _delivery(
        rig, 1, True, attach_after_report=True
    )
    charged = rig.clock.take()
    size = result.nominal_size
    expected = LEG + (LEG + size / rig.bandwidth) + deserialize_cost(size)
    assert charged == pytest.approx(expected)
    assert future.result(timeout=0) == Blob(8 * 1024)


@pytest.mark.parametrize("borrowed", [True, False], ids=["borrowed", "copied"])
def test_request_hops_charge_borrowed_bytes_on_the_round_trip(rig, borrowed):
    """Submit and report requests: one API round trip carrying the borrowed
    bytes, and no extra latency for them.  Copied payloads go to the store
    instead and add nothing to the request."""
    endpoint = rig.endpoint(uplink_batching=borrowed)
    client = FaasClient(
        rig.cloud, rig.token, site=rig.testbed.theta_login, clock=rig.clock
    )
    round_trip = 2 * LEG + API
    try:
        size = rig.args(borrowed).nominal_size
        rig.clock.take()
        task_ids = client._cloud_submit_batch(
            [
                TaskSubmission(rig.func_id, endpoint.endpoint_id, rig.args(borrowed))
                for _ in range(N)
            ]
        )
        carried = N * size / rig.bandwidth if borrowed else 0.0
        assert rig.clock.take() == pytest.approx(round_trip + carried)

        result = serialize({"success": True, "value": Blob(8 * 1024)})
        endpoint._fetch(timeout=0.0)
        rig.clock.take()
        endpoint._uplink([(t, True, result, None) for t in task_ids])
        carried = N * result.nominal_size / rig.bandwidth if borrowed else 0.0
        assert rig.clock.take() == pytest.approx(round_trip + carried)
    finally:
        client.close()
        endpoint.pool.stop()
