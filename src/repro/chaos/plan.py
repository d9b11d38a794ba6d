"""Deterministic fault injection: plans, the injector, and the hook API.

A :class:`FaultPlan` names the failures one campaign cell should suffer —
endpoint crashes mid-lease, worker exceptions, transfer failures, payload-cap
rejections, store read corruption — and a :class:`FaultInjector` decides, at
named hook points threaded through the fabric, whether a given event fires.

Decisions are **deterministic without a shared RNG**: firing is a pure
function of ``(plan seed, hook, fault mode, event key, occurrence index)``
via a stable hash, so thread scheduling cannot reorder random draws between
runs.  Hook sites key events by *content* (argument-payload digests, store
keys, endpoint names) rather than by run-local ids, which is what makes two
runs of the same seeded campaign inject the identical fault set.

Instrumented components call :func:`chaos_check` — a one-global-read no-op
when no injector is installed, the same zero-overhead contract as
``repro.observe``.  The hook site interprets the returned spec (raise the
right exception type, sleep ``spec.delay`` for stalls); the injector only
decides and records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.chaos.policy import stable_unit_hash
from repro.observe import counter_inc

__all__ = [
    "HOOKS",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "set_injector",
    "get_injector",
    "chaos_enabled",
    "chaos_check",
    "attempt_from_key",
]

#: Every hook point wired into the fabric.  A spec naming any other hook is
#: rejected at plan construction, so typos fail fast instead of never firing.
HOOKS = frozenset(
    {
        "cloud.submit",  # FaasCloud.submit_batch: per-item payload-cap rejection
        "cloud.store.read",  # cloud payload store: read error / corruption
        "cloud.shard.drop",  # CloudRouter: owning shard restarts at admission
        "cloud.shard.crash",  # CloudRouter: shard state destroyed, journal replay
        "cloud.batch.flush",  # CloudRouter: crash between batch accept and fan-out
        "campaign.crash",  # campaign process dies; successor resumes by id
        "endpoint.crash",  # FaasEndpoint: process loss mid-lease
        "endpoint.slow",  # FaasEndpoint: gray degradation (slow-but-alive)
        "worker.execute",  # exception inside the function body
        "worker.poison",  # deterministic failure on every endpoint/attempt
        "store.get",  # ProxyStore backend read corruption
        "transfer.attempt",  # managed transfer failure / stall
        "bus.deliver",  # NotificationBus: envelope lost in flight
        "bus.duplicate",  # NotificationBus: envelope delivered twice
        "bus.subscription.drop",  # NotificationBus: forced disconnect at publish
        "scheduler.provision",  # ElasticWorkerPool: scale-up stalls then fails
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One kind of failure to inject at one hook point.

    ``rate`` selects event *keys* (hashed, not drawn), ``occurrences``
    restricts which repetition of a key fires (default: only the first,
    so a retried operation succeeds), ``match`` filters on hook context
    (e.g. ``{"attempt": 0}`` or ``{"endpoint": "ep-a"}``), ``delay`` makes
    the site stall for that many nominal seconds before failing, and
    ``max_fires`` caps the total number of injections.
    """

    hook: str
    mode: str
    rate: float = 1.0
    occurrences: tuple[int, ...] = (0,)
    match: Mapping[str, Any] | None = None
    delay: float = 0.0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.hook not in HOOKS:
            raise ValueError(
                f"unknown chaos hook {self.hook!r}; known hooks: {sorted(HOOKS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired: where, what, and on which event key."""

    hook: str
    mode: str
    key: str  # "<base key>#<occurrence>"


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs active for one campaign cell."""

    seed: int
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def build(cls, seed: int, specs: Iterable[FaultSpec]) -> "FaultPlan":
        return cls(seed=seed, specs=tuple(specs))


class FaultInjector:
    """Decides and records fault firings for one plan.

    Thread-safe.  Occurrence counters are per ``(hook, base key)``, so the
    n-th read of the *same payload* or the n-th retry of the *same logical
    operation* is distinguishable from its first try no matter which thread
    performs it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Specs are indexed by plan position: FaultSpec.match is a mapping,
        # so the spec itself is not hashable.
        self._by_hook: dict[str, list[tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.specs):
            self._by_hook.setdefault(spec.hook, []).append((index, spec))
        self._occurrences: dict[tuple[str, str], int] = {}
        self._fires: list[FaultEvent] = []
        self._fires_per_spec: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- decision --------------------------------------------------------------
    def _selects(self, spec: FaultSpec, key: str) -> bool:
        u = stable_unit_hash(f"{self.plan.seed}|{spec.hook}|{spec.mode}|{key}")
        return u < spec.rate

    def check(self, hook: str, key: str, **ctx: Any) -> FaultSpec | None:
        """Record one event at ``hook`` for ``key``; return the spec that
        fires on it, or ``None``.  Every call advances the occurrence
        counter for ``(hook, key)`` whether or not anything fires."""
        with self._lock:
            occ = self._occurrences.get((hook, key), 0)
            self._occurrences[(hook, key)] = occ + 1
            for index, spec in self._by_hook.get(hook, ()):
                if occ not in spec.occurrences:
                    continue
                if spec.match and any(
                    ctx.get(name) != want for name, want in spec.match.items()
                ):
                    continue
                fired = self._fires_per_spec.get(index, 0)
                if spec.max_fires is not None and fired >= spec.max_fires:
                    continue
                if not self._selects(spec, key):
                    continue
                self._fires_per_spec[index] = fired + 1
                self._fires.append(FaultEvent(hook, spec.mode, f"{key}#{occ}"))
                counter_inc("chaos.faults_injected", hook=hook, mode=spec.mode)
                return spec
        return None

    # -- accounting ------------------------------------------------------------
    def fires(self) -> list[FaultEvent]:
        with self._lock:
            return list(self._fires)

    def fire_count(self, *, hook: str | None = None, mode: str | None = None) -> int:
        with self._lock:
            return sum(
                1
                for event in self._fires
                if (hook is None or event.hook == hook)
                and (mode is None or event.mode == mode)
            )


# -- module-level API (the zero-overhead surface) ------------------------------

_injector: FaultInjector | None = None
_injector_lock = threading.Lock()


def set_injector(injector: FaultInjector | None) -> None:
    """Install (or remove, with ``None``) the process-wide injector."""
    global _injector
    with _injector_lock:
        _injector = injector


def get_injector() -> FaultInjector | None:
    return _injector


def chaos_enabled() -> bool:
    return _injector is not None


def chaos_check(hook: str, key: str, **ctx: Any) -> FaultSpec | None:
    """Ask the installed injector whether a fault fires on this event; a
    one-global-read ``None`` when chaos is off."""
    injector = _injector
    if injector is None:
        return None
    return injector.check(hook, key, **ctx)


def attempt_from_key(key: str | None) -> int:
    """Parse the attempt number out of a ``<digest>#a<N>`` chaos key.

    Retry layers append ``#a<N>`` to content-derived keys so each attempt
    is a distinct injection event; hook sites that only see the composed
    key (the worker, the cloud) recover ``N`` for spec matching."""
    if not key:
        return 0
    base, sep, tail = key.rpartition("#a")
    if not sep:
        return 0
    try:
        return int(tail)
    except ValueError:
        return 0
