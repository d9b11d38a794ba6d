"""Span tracing around the public boundaries of each ``repro`` layer.

The traced run installs a wrapper on every boundary in :data:`BOUNDARIES`
(and patches ``serialize``/``deserialize`` at the names of the modules that
import them).  Each wrapped call records one span: boundary name, wall /
nominal / thread-CPU start and end, the enclosing span on the same thread
(a per-thread stack), and the task id when the call carries one.  A span's
*self* time is its duration minus the durations of its direct children,
which on one thread are strictly nested.

Spans stay in memory and are written out once, by :meth:`Tracer.write`.
Timed runs install nothing: :func:`installed` must read 0 during them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.net.clock import get_clock

#: Marker attribute set on every wrapper this module installs.
MARK = "__perfbench_span__"


def _len_result(args, kwargs, result):
    return len(result) if result is not None else 0


def _len_arg(position: int, name: str):
    def count(args, kwargs, result):
        value = kwargs.get(name, args[position] if len(args) > position else ())
        return len(value)

    return count


def _transfer_bytes(args, kwargs, result):
    return int(getattr(result, "bytes_transferred", 0) or 0)


def _apps(name):
    modules = (
        "repro.apps.moldesign.tasks",
        "repro.apps.moldesign.campaign",
        "repro.apps.moldesign",
    )
    return [(module, name) for module in modules]


#: boundary -> ([(owner, attribute), ...], item counter or None).
#: An owner is a ``"module:Class"`` or a module path; a counter maps
#: ``(args, kwargs, result)`` to the number of items the call carried
#: (``args`` include ``self``).
BOUNDARIES = {
    "core.send_request": ([("repro.core.queues:ColmenaQueues", "send_request")], None),
    "core.get_result": ([("repro.core.queues:ColmenaQueues", "get_result")], None),
    "core.get_task": ([("repro.core.queues:ColmenaQueues", "get_task")], None),
    "core.send_result": ([("repro.core.queues:ColmenaQueues", "send_result")], None),
    "faas.client.submit": ([("repro.faas.client:FaasClient", "submit")], None),
    "faas.cloud.submit": ([("repro.faas.cloud:FaasCloud", "submit")], None),
    "faas.cloud.submit_batch": (
        [("repro.faas.cloud:FaasCloud", "submit_batch")],
        _len_arg(3, "items"),
    ),
    "faas.cloud.fetch_tasks": ([("repro.faas.cloud:FaasCloud", "fetch_tasks")], _len_result),
    "faas.cloud.report_result": ([("repro.faas.cloud:FaasCloud", "report_result")], None),
    "faas.cloud.report_results": (
        [("repro.faas.cloud:FaasCloud", "report_results")],
        _len_arg(3, "results"),
    ),
    "faas.cloud.next_completed": (
        [
            ("repro.faas.cloud:FaasCloud", "next_completed"),
            ("repro.faas.cloud:FaasCloud", "next_completed_batch"),
        ],
        None,
    ),
    "faas.cloud.heartbeat": ([("repro.faas.cloud:FaasCloud", "heartbeat")], None),
    # Filled in by _router_methods(): every public CloudRouter method.
    "tenancy.router": ([], None),
    "batch.add": ([("repro.batch.batcher:BatchAccumulator", "add")], None),
    "batch.take": ([("repro.batch.batcher:BatchAccumulator", "take")], _len_result),
    "bus.publish": ([("repro.bus.broker:NotificationBus", "publish")], None),
    "bus.receive": ([("repro.bus.consumer:BusConsumer", "receive")], _len_result),
    "serialize.serialize": ([], None),  # patched per importing module
    "serialize.deserialize": ([], None),
    "durable.append": ([("repro.durable.journal:Journal", "append")], None),
    "proxystore.put": ([("repro.proxystore.store:Store", "put")], None),
    "proxystore.get": ([("repro.proxystore.store:Store", "get")], None),
    "proxystore.prefetch": ([("repro.proxystore.store:Store", "prefetch")], None),
    "transfer.submit": ([("repro.transfer.service:TransferService", "submit")], None),
    "transfer.wait": ([("repro.transfer.client:TransferClient", "wait")], _transfer_bytes),
    "resources.submit": ([("repro.resources.worker:WorkerPool", "submit")], None),
    "net.kv": (
        [
            ("repro.net.kvstore:KVClient", op)
            for op in ("set", "get", "delete", "exists", "incr", "rpush", "lpush",
                       "lpop", "blpop", "llen")
        ],
        None,
    ),
    "net.fs": (
        [("repro.net.fs:FileSystem", op) for op in ("read", "write", "append")],
        None,
    ),
    "apps.simulate": (_apps("simulate_molecule"), None),
    "apps.train": (_apps("train_model"), None),
    "apps.infer": (_apps("run_inference"), None),
}

#: Modules that import ``serialize``/``deserialize`` by name.
SERIALIZE_IMPORTERS = (
    "repro.core.queues",
    "repro.faas.client",
    "repro.faas.cloud",
    "repro.faas.endpoint",
    "repro.proxystore.store",
    "repro.parsl.executors",
)

#: Non-span byte counter: WAL bytes handed to the journal backend.
WAL_BACKENDS = (("repro.durable.journal:FileJournalBackend", "append"),)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _router_methods() -> list[tuple[str, str]]:
    from repro.tenancy.router import CloudRouter

    return [
        ("repro.tenancy.router:CloudRouter", name)
        for name, value in vars(CloudRouter).items()
        if not name.startswith("_") and callable(value)
    ]


def _task_id(args, kwargs):
    task_id = kwargs.get("task_id")
    if isinstance(task_id, str):
        return task_id
    for arg in args[1:3]:
        if isinstance(arg, str) and arg.startswith("task-"):
            return arg
        candidate = getattr(arg, "task_id", None)
        if isinstance(candidate, str):
            return candidate
    return None


class Tracer:
    """Installs the boundary wrappers and collects their spans."""

    def __init__(self) -> None:
        self.clock = get_clock()
        self.spans: list[tuple] = []
        self.wal_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wal_lock = threading.Lock()

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        tracer, clock = self, self.clock
        spans, ids = self.spans, self._ids
        perf, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            # [span id, child nominal s, child cpu s]
            frame = [next(ids), 0.0, 0.0]
            stack.append(frame)
            w0, n0, c0 = perf(), clock.now(), thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, n1, w1 = thread_time(), clock.now(), perf()
                stack.pop()
                dn, dc = n1 - n0, c1 - c0
                if parent is not None:
                    parent[1] += dn
                    parent[2] += dc
                items = 1
                if count is not None:
                    try:
                        items = count(args, kwargs, result)
                    except (TypeError, IndexError):
                        items = 0
                spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else 0,
                        name,
                        w0, w1, n0, n1, c0, c1,
                        dn - frame[1],
                        dc - frame[2],
                        items,
                        _task_id(args, kwargs),
                    )
                )

        setattr(wrapper, MARK, name)
        return wrapper

    def _count_wal(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, data, *args, **kwargs):
            with tracer._wal_lock:
                tracer.wal_bytes += len(data)
            return fn(self_, data, *args, **kwargs)

        setattr(wrapper, MARK, "wal")
        return wrapper

    # -- install ------------------------------------------------------------
    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        # One wrapper per original function, shared by every name bound to
        # it: pickle finds a task body by module and name and checks that
        # the object there is the one being pickled.
        made: dict[int, object] = {}

        def patch(target, attr, name, original, count=None):
            if id(original) not in made:
                made[id(original)] = self.wrap(name, original, count)
            self._patch(target, attr, made[id(original)])

        for name, (owners, count) in BOUNDARIES.items():
            if name == "tenancy.router":
                owners = _router_methods()
            for owner, attr in owners:
                target = _resolve(owner)
                original = target.__dict__.get(attr)
                if original is not None:
                    patch(target, attr, name, original, count)
        serialize_module = importlib.import_module("repro.serialize")

        for module_name in SERIALIZE_IMPORTERS:
            module = importlib.import_module(module_name)
            for attr in ("serialize", "deserialize"):
                original = getattr(serialize_module, attr)
                if module.__dict__.get(attr) is original:
                    patch(module, attr, f"serialize.{attr}", original)
        for owner, attr in WAL_BACKENDS:
            target = _resolve(owner)
            self._patch(target, attr, self._count_wal(target.__dict__[attr]))
        return self

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results ------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per boundary: calls, items, self nominal s, self CPU s."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "items": 0, "self_nominal_s": 0.0, "self_cpu_s": 0.0}
        )
        for span in self.spans:
            row = out[span[2]]
            row["calls"] += 1
            row["items"] += span[11]
            row["self_nominal_s"] += span[9]
            row["self_cpu_s"] += span[10]
        return {name: dict(out[name]) for name in BOUNDARIES}

    def write(self, path) -> None:
        keys = (
            "span_id", "parent_id", "name", "wall_start", "wall_end",
            "nominal_start", "nominal_end", "cpu_start", "cpu_end",
            "self_nominal_s", "self_cpu_s", "items", "task_id",
        )
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def installed() -> int:
    """How many boundary wrappers are installed right now (0 when untraced)."""
    found = 0
    owners = [owner for owners, _ in BOUNDARIES.values() for owner in owners]
    for owner, attr in owners + _router_methods() + list(WAL_BACKENDS):
        if hasattr(_resolve(owner).__dict__.get(attr), MARK):
            found += 1
    for module_name in SERIALIZE_IMPORTERS:
        module = importlib.import_module(module_name)
        for attr in ("serialize", "deserialize"):
            if hasattr(module.__dict__.get(attr), MARK):
                found += 1
    return found
