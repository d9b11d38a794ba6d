"""Globus connector: wide-area pass-by-reference with no open ports.

§IV-C / §V-C2: an object ``put`` from site A is written to A's staging
volume and a managed transfer is *immediately* submitted toward every other
configured endpoint — this ahead-of-time movement is what lets later proxy
resolutions overlap transfer latency with computation (the paper's 12 % of
inference proxies resolving in <100 ms).  A ``get`` on site B waits for the
transfer task to complete, then reads the local replica; the wait is the
"time on worker increases with Globus" effect in Fig. 4.
"""

from __future__ import annotations

import threading

from repro.exceptions import FileSystemError, StoreError, TransferError
from repro.net.clock import get_clock
from repro.net.context import current_site
from repro.proxystore.connectors.base import Connector
from repro.serialize import Payload
from repro.transfer.client import TransferClient
from repro.transfer.service import TransferEndpoint

__all__ = ["GlobusConnector"]


class GlobusConnector(Connector):
    """Stores payloads on per-site staging volumes synchronized by the
    managed transfer service.

    Parameters
    ----------
    client:
        Transfer-service SDK handle (carries the user identity that the
        per-user concurrent-transfer limit applies to).
    endpoints:
        ``site name -> TransferEndpoint`` for every site participating in
        the store.  Two entries reproduce the paper's setup (CPU facility +
        GPU facility); more are allowed.
    Use :meth:`put_batch` to fuse many objects into a *single* transfer
    task per destination — the paper's suggested fix for the per-user
    concurrent transfer limit (§V-D1).
    """

    kind = "globus"

    def __init__(
        self,
        client: TransferClient,
        endpoints: dict[str, TransferEndpoint],
        directory: str = "proxystore-globus",
    ) -> None:
        if len(endpoints) < 2:
            raise ValueError("GlobusConnector needs at least two endpoints")
        self._client = client
        self._endpoints = dict(endpoints)
        self._dir = directory.rstrip("/")
        # (key, destination site name) -> transfer task id
        self._pending: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()

    # -- helpers ------------------------------------------------------------
    def _local_endpoint(self) -> TransferEndpoint:
        site = current_site()
        if site is None:
            # Unpinned callers act from the first configured endpoint.
            return next(iter(self._endpoints.values()))
        try:
            return self._endpoints[site.name]
        except KeyError:
            raise StoreError(
                f"site {site.name!r} has no endpoint in this Globus store"
            ) from None

    def _path(self, key: str) -> str:
        return f"{self._dir}/{key}"

    def _replicate(self, local: TransferEndpoint, paths: dict[str, str]) -> None:
        """Submit ONE transfer of ``paths`` (key -> path) per distinct remote
        endpoint and record its task id for every site name that endpoint
        serves: sites sharing a file system (a login node and its compute
        nodes) share an endpoint, so they share the transfer too."""
        sites: dict[str, list[str]] = {}
        for site_name, remote in self._endpoints.items():
            if remote.endpoint_id != local.endpoint_id:
                sites.setdefault(remote.endpoint_id, []).append(site_name)
        for endpoint_id, site_names in sites.items():
            task_id = self._client.submit(
                local.endpoint_id,
                endpoint_id,
                [(path, path) for path in paths.values()],
            )
            with self._lock:
                for key in paths:
                    for site_name in site_names:
                        self._pending[(key, site_name)] = task_id

    # -- Connector API ---------------------------------------------------------
    def put(self, key: str, payload: Payload) -> None:
        local = self._local_endpoint()
        path = self._path(key)
        local.volume.write(path, payload.data, payload.nominal_size)
        self._replicate(local, {key: path})

    def put_batch(self, items: dict[str, Payload]) -> None:
        """Stage all items, then submit ONE transfer task per destination.

        A batch of N objects costs one HTTPS submission and occupies one
        slot of the per-user concurrent-transfer limit instead of N — the
        §V-D1 fusion optimization.
        """
        if not items:
            return
        local = self._local_endpoint()
        paths = {}
        for key, payload in items.items():
            path = self._path(key)
            local.volume.write(path, payload.data, payload.nominal_size)
            paths[key] = path
        self._replicate(local, paths)

    def get(self, key: str, timeout: float | None = None) -> Payload:
        local = self._local_endpoint()
        path = self._path(key)
        site_name = local.site.name
        with self._lock:
            task_id = self._pending.get((key, site_name))
        if task_id is not None:
            try:
                self._client.wait(task_id, timeout=timeout)
            except TransferError as exc:
                raise StoreError(f"globus connector: transfer failed: {exc}") from exc
        clock = get_clock()
        deadline = clock.now() + timeout if timeout is not None else None
        while True:
            try:
                data = local.volume.read(path)
                nominal = local.volume.size(path)
                return Payload(data=data, nominal_size=nominal)
            except FileSystemError:
                if deadline is not None and clock.now() >= deadline:
                    raise StoreError(
                        f"globus connector: no object under key {key!r} at "
                        f"{site_name}"
                    ) from None
                if task_id is None and deadline is None:
                    raise StoreError(
                        f"globus connector: no object under key {key!r} at "
                        f"{site_name} and no transfer inbound"
                    ) from None
                clock.sleep(0.01)

    def get_batch(
        self, keys: "list[str] | tuple[str, ...]", timeout: float | None = None
    ) -> dict[str, Payload]:
        """Fetch many keys, waiting each inbound transfer *task* only once.

        Keys staged together by :meth:`put_batch` share one transfer task;
        a prefetch of a whole model-weight batch therefore blocks on one
        managed-transfer wait instead of one per key.
        """
        local = self._local_endpoint()
        site_name = local.site.name
        with self._lock:
            task_ids = {self._pending.get((key, site_name)) for key in keys}
        for task_id in task_ids - {None}:
            try:
                self._client.wait(task_id, timeout=timeout)
            except TransferError as exc:
                raise StoreError(f"globus connector: transfer failed: {exc}") from exc
        return {key: self.get(key, timeout=timeout) for key in keys}

    def exists(self, key: str) -> bool:
        local = self._local_endpoint()
        if local.volume.exists(self._path(key)):
            return True
        with self._lock:
            return any(k == key for k, _ in self._pending)

    def evict(self, key: str) -> None:
        path = self._path(key)
        for endpoint in self._endpoints.values():
            endpoint.volume.delete(path)
        with self._lock:
            for pair in [p for p in self._pending if p[0] == key]:
                del self._pending[pair]

    def transfer_task_ids(self, key: str) -> dict[str, str]:
        """Destination site -> transfer task id for a key (introspection)."""
        with self._lock:
            return {site: tid for (k, site), tid in self._pending.items() if k == key}
