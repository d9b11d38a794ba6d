"""A HighThroughputExecutor-like pilot-job executor (the Parsl baseline).

Architecture (mirroring Parsl's HTEX): the *interchange* runs beside the
controller (e.g. on the Theta login node) and listens on two ports — one for
task distribution, one for results.  Workers deployed on the resource dial
back over a :class:`~repro.parsl.channels.Channel` and pull serialized
(function, args) messages.  Everything travels **by value** through the
interchange unless the application layers ProxyStore on top, which is
exactly the contrast §V-E draws between the three workflow configurations.
"""

from __future__ import annotations

import queue
import threading
import traceback
from concurrent.futures import Executor, Future
from typing import Callable

from repro.net.clock import Clock, get_clock
from repro.net.context import SiteThread
from repro.net.topology import Network, Site
from repro.observe import TraceContext, counter_inc, trace_span
from repro.parsl.channels import Channel, DirectChannel
from repro.proxystore.prefetch import apply_prefetch_hints
from repro.resources.worker import WorkerPool
from repro.serialize import (
    Payload,
    deserialize,
    deserialize_cost,
    serialize,
    serialize_cost,
)
from repro.exceptions import TaskError

__all__ = ["HtexExecutor"]


class HtexExecutor(Executor):
    """Tasks from one controller to one resource's worker pool.

    Parameters
    ----------
    label:
        Executor name, used by the dataflow layer for routing.
    controller_site:
        Where the interchange (and the submitting application) runs.
    pool:
        The pilot-job worker pool on the target resource.
    channel:
        How workers reach the interchange; validated at construction, so a
        disallowed direct connection fails at deploy time like the real
        thing would.
    """

    def __init__(
        self,
        label: str,
        controller_site: Site,
        pool: WorkerPool,
        network: Network,
        *,
        channel: Channel | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.label = label
        self.controller_site = controller_site
        self.pool = pool
        self.network = network
        self.channel = channel or DirectChannel()
        self.channel.validate(network, pool.site, controller_site)
        self._clock = clock or get_clock()
        self._tasks: queue.Queue[
            tuple[Future, Payload, Callable, TraceContext | None, tuple] | None
        ] = queue.Queue()
        self._running = False
        self._interchange: SiteThread | None = None
        # Bulk bytes in both directions share one channel stream.
        self._channel_lock = threading.Lock()

    def _pay_transfer(self, a: Site, b: Site, nbytes: int) -> None:
        latency, wire = self.channel.split_transfer(self.network, a, b, nbytes)
        self._clock.sleep(latency)
        if wire <= 0:
            return
        if self.channel.bandwidth_cap is not None:
            with self._channel_lock:
                self._clock.sleep(wire)
        else:
            self._clock.sleep(wire)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "HtexExecutor":
        if self._running:
            return self
        self._running = True
        self.pool.start()
        self._interchange = SiteThread(
            self.controller_site,
            target=self._interchange_loop,
            name=f"htex-{self.label}-interchange",
        )
        self._interchange.start()
        return self

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        if not self._running:
            return
        self._running = False
        self._tasks.put(None)
        if self._interchange is not None:
            self._interchange.join(timeout=10)
        self.pool.stop()

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        fn: Callable,
        /,
        *args: object,
        _trace_ctx: TraceContext | None = None,
        _prefetch_hints: tuple = (),
        **kwargs: object,
    ) -> Future:
        if not self._running:
            raise RuntimeError(f"executor {self.label!r} is not started")
        with trace_span("htex.submit", parent=_trace_ctx, executor=self.label):
            payload = serialize((args, kwargs))
            self._clock.sleep(serialize_cost(payload.nominal_size))
        future: Future = Future()
        self._tasks.put((future, payload, fn, _trace_ctx, tuple(_prefetch_hints)))
        return future

    # -- interchange + worker glue ---------------------------------------------------
    def _interchange_loop(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            future, payload, fn, trace_ctx, prefetch_hints = item
            # Warm the worker site's proxy cache while the argument payload
            # is still crossing the channel, so first resolves land on hot
            # replicas instead of paying the wire per worker.
            if prefetch_hints:
                apply_prefetch_hints(
                    prefetch_hints, self.pool.site, via=f"htex:{self.label}"
                )
            # Interchange -> worker: the whole argument payload rides the
            # channel (tunnels cap throughput and add latency).
            with trace_span(
                "htex.dispatch", parent=trace_ctx, executor=self.label
            ) as span:
                self._pay_transfer(
                    self.controller_site, self.pool.site, payload.nominal_size
                )
                span.set_tag("bytes", payload.nominal_size).set_tag(
                    "dst", self.pool.site.name
                )
            self.pool.submit(self._make_work(future, payload, fn, trace_ctx))

    def _make_work(
        self,
        future: Future,
        payload: Payload,
        fn: Callable,
        trace_ctx: TraceContext | None = None,
    ) -> Callable[[], None]:
        def work() -> None:
            # Span opens on the worker thread, so spans raised inside ``fn``
            # (the ColmenaTask's ``worker.execute``) nest under it.
            with trace_span(
                "worker.run", parent=trace_ctx, executor=self.label
            ) as span:
                self._clock.sleep(deserialize_cost(payload.nominal_size))
                try:
                    args, kwargs = deserialize(payload)
                    value = fn(*args, **kwargs)
                    body = {"success": True, "value": value}
                except Exception as exc:
                    body = {
                        "success": False,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    }
                result_payload = serialize(body)
                self._clock.sleep(serialize_cost(result_payload.nominal_size))
                # Worker -> interchange -> client, again by value.
                self._pay_transfer(
                    self.pool.site, self.controller_site, result_payload.nominal_size
                )
                span.set_tag("bytes", result_payload.nominal_size).set_tag(
                    "dst", self.controller_site.name
                )
            self._clock.sleep(deserialize_cost(result_payload.nominal_size))
            if body["success"]:
                future.set_result(body["value"])
            else:
                future.set_exception(
                    TaskError(body["error"], remote_traceback=body["traceback"])
                )

        return work

    def __enter__(self) -> "HtexExecutor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
