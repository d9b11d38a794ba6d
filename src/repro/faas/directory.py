"""The endpoint directory: one registry of endpoints, leases and breakers.

funcX keeps one endpoint registry per service.  A standalone
:class:`~repro.faas.cloud.FaasCloud` builds its own; a
:class:`~repro.tenancy.CloudRouter` builds one and hands it to every shard,
like the bus.  It is surviving fabric, never journaled.  A lapsed lease is
*level* state — "``a`` is lapsed; its work goes to ``b``" holds until ``a``
beats again — so each shard's lazy sweep moves its own records off ``a``
whenever it runs, with no cross-shard callbacks.
"""

from __future__ import annotations

import threading
import uuid

from repro.exceptions import EndpointUnavailableError
from repro.net.clock import Clock, get_clock
from repro.net.defaults import PaperConstants
from repro.net.topology import Site
from repro.observe import counter_inc
from repro.resilience.health import BREAKER_OPEN

__all__ = ["EndpointDirectory"]


class EndpointDirectory:
    """Endpoint ids, sites, failover groups, heartbeat leases, the optional
    :class:`~repro.resilience.EndpointHealthTracker` (``health``; ``None``
    disables circuit breaking) and peer selection.  Holds no tasks."""

    def __init__(
        self,
        constants: PaperConstants | None = None,
        clock: Clock | None = None,
        *,
        health: object | None = None,
    ) -> None:
        self.constants = constants or PaperConstants()
        self.clock = clock or get_clock()
        self.health = health
        self._lock = threading.Lock()
        self._sites: dict[str, Site] = {}
        self._groups: dict[str, str | None] = {}
        # Only endpoints that ever heartbeat hold a lease, so direct-API
        # test rigs without an agent process are never reaped.
        self._leases: dict[str, float] = {}
        #: lapsed endpoint -> when its lease ran out, in lapse order.
        self._lapsed: dict[str, float] = {}

    def register(
        self, name: str, site: Site, *, failover_group: str | None = None
    ) -> str:
        endpoint_id = f"ep-{name}-{uuid.uuid4().hex[:8]}"
        with self._lock:
            self._sites[endpoint_id] = site
            self._groups[endpoint_id] = failover_group
        return endpoint_id

    def site(self, endpoint_id: str) -> Site:
        with self._lock:
            site = self._sites.get(endpoint_id)
        if site is None:
            raise EndpointUnavailableError(f"unknown endpoint {endpoint_id!r}")
        return site

    # -- leases ---------------------------------------------------------------
    def heartbeat(self, endpoint_id: str) -> float:
        """Renew a lease, ending any lapse; returns the new expiry."""
        self.site(endpoint_id)
        now = self.clock.now()
        expiry = now + self.constants.endpoint_lease_ttl
        with self._lock:
            self._leases[endpoint_id] = expiry
            self._lapsed.pop(endpoint_id, None)
        if self.health is not None:
            # Heartbeat jitter is a gray-failure signal: a degraded agent
            # beats late long before it stops beating entirely.
            self.health.record_heartbeat(
                endpoint_id, now, self.constants.endpoint_heartbeat_period
            )
        counter_inc("faas.heartbeats", endpoint=endpoint_id)
        return expiry

    def lease_valid(self, endpoint_id: str) -> bool:
        with self._lock:
            expiry = self._leases.get(endpoint_id)
        return expiry is not None and expiry > self.clock.now()

    def release_lease(self, endpoint_id: str) -> None:
        with self._lock:
            self._leases.pop(endpoint_id, None)
            self._lapsed.pop(endpoint_id, None)

    def expire_leases(self) -> list[str]:
        """Mark run-out leases lapsed; each lapse is returned (and counted)
        once, to whichever caller notices it first."""
        now = self.clock.now()
        with self._lock:
            reaped = [eid for eid, expiry in self._leases.items() if expiry <= now]
            for endpoint_id in reaped:
                self._lapsed[endpoint_id] = self._leases.pop(endpoint_id)
        for endpoint_id in reaped:
            counter_inc("faas.lease_expiries", endpoint=endpoint_id)
        return reaped

    def lapsed(self) -> dict[str, float]:
        """Endpoints lapsed and not beaten since -> when their lease ran
        out, in lapse order."""
        with self._lock:
            return dict(self._lapsed)

    # -- peer selection -------------------------------------------------------
    def group_members(self, endpoint_id: str) -> list[str]:
        """Same-failover-group peers with live leases, sorted (self excluded);
        the first is the failover target."""
        now = self.clock.now()
        with self._lock:
            group = self._groups.get(endpoint_id)
            return sorted(
                other_id
                for other_id, other_group in self._groups.items()
                if group is not None
                and other_group == group
                and other_id != endpoint_id
                and self._leases.get(other_id, now) > now  # no lease: not live
            )

    def healthy_peer(self, endpoint_id: str, now: float) -> str | None:
        """A live same-group peer whose breaker is not open, if any."""
        for other_id in self.group_members(endpoint_id):
            if not self.breaker_open(other_id, now):
                return other_id
        return None

    def breaker_open(self, endpoint_id: str, now: float) -> bool:
        return (
            self.health is not None
            and self.health.evaluate(endpoint_id, now) == BREAKER_OPEN
        )

    def open_breakers(self, now: float) -> list[str]:
        """Registered endpoints whose breaker is open, in registration order."""
        with self._lock:
            endpoint_ids = list(self._sites)
        return [eid for eid in endpoint_ids if self.breaker_open(eid, now)]
