"""Shared fixtures: fast clock, clean registries, canonical testbed."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.apps.environment import clear_software
from repro.batch.reactor import reset_reactor
from repro.chaos.plan import set_injector
from repro.net.clock import reset_clock
from repro.net.defaults import build_paper_testbed
from repro.observe import set_metrics, set_tracer
from repro.proxystore.store import clear_store_registry

# Property tests share the module-scoped clean_state fixture; silence the
# (irrelevant here) function-scoped-fixture health check.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
    max_examples=50,
)
settings.load_profile("repro")

#: One nominal second = 2 ms of wall time in tests.
TEST_TIME_SCALE = 0.002


@pytest.fixture(autouse=True)
def clean_state():
    # The reactor holds timers scheduled against the previous test's clock
    # epoch; drop it before the clock resets so none can fire across tests.
    reset_reactor()
    reset_clock(TEST_TIME_SCALE)
    clear_store_registry()
    clear_software()
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    yield
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    clear_store_registry()
    clear_software()


@pytest.fixture
def testbed():
    return build_paper_testbed(seed=42)
