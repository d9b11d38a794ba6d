"""The surrogate fine-tuning steering policy (§III-B).

The policy juggles four task types with shared CPU capacity:

* *simulation* (DFT) consumes structures picked from two pools — the
  **audit pool** (last frame of each sampling trajectory: maximally far
  from the training set) and the **uncertainty pool** (structures whose
  predicted energies disagree most across the ensemble);
* *sampling* runs surrogate-driven MD to generate candidate structures,
  with a timestep count that ramps up as the model earns trust;
* *inference* re-ranks the last ``uncertainty_batch`` sampled structures
  whenever that many accumulate, refreshing the uncertainty pool;
* *training* refreshes ensemble members every ``retrain_after`` new DFT
  results.

A rebalancer agent moves CPU slots between simulation and sampling to hold
the audit pool at a constant size, the paper's §III-B resource policy.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque

import numpy as np

from typing import TYPE_CHECKING

from repro.apps.common import steer
from repro.apps.finetuning.config import FineTuneConfig
from repro.core.queues import ColmenaQueues
from repro.core.result import Result
from repro.core.thinker import (
    BaseThinker,
    ResourceCounter,
    agent,
    event_responder,
    result_processor,
    task_submitter,
)
from repro.ml.schnet import SchnetSurrogate
from repro.net.clock import get_clock
from repro.net.topology import Site
from repro.proxystore.prefetch import hints_for_proxies
from repro.proxystore.store import Store
from repro.sim.water import Structure, make_water_cluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.durable import CampaignCheckpoint
    from repro.elastic import SteeringPolicy

__all__ = ["FineTuneThinker"]


def _encode_structure(structure: Structure) -> dict:
    """JSON-safe structure document for the decision journal."""
    return {
        "positions": structure.positions.tolist(),
        "types": structure.types.tolist(),
        "bonds": [list(bond) for bond in structure.bonds],
    }


def _decode_structure(doc: dict) -> Structure:
    return Structure(
        np.asarray(doc["positions"], dtype=float),
        np.asarray(doc["types"], dtype=int),
        tuple(tuple(int(i) for i in bond) for bond in doc["bonds"]),
    )


class FineTuneThinker(BaseThinker):
    """Active-learning controller for surrogate fine-tuning."""

    def __init__(
        self,
        queues: ColmenaQueues,
        site: Site,
        config: FineTuneConfig,
        initial_models: list[SchnetSurrogate],
        *,
        n_cpu_slots: int,
        cross_store: Store | None = None,
        rng_seed: int = 0,
        steering: "SteeringPolicy | None" = None,
        checkpoint: "CampaignCheckpoint | None" = None,
    ) -> None:
        if len(initial_models) != config.n_ensemble:
            raise ValueError("need one initial model per ensemble member")
        counter = ResourceCounter(n_cpu_slots, ["simulate", "sample"])
        sample_slots = min(config.initial_sample_slots, n_cpu_slots - 1)
        counter.allocate("sample", sample_slots)
        counter.allocate("simulate", n_cpu_slots - sample_slots)
        super().__init__(queues, site, counter)
        self.config = config
        self.cross_store = cross_store
        #: Optional runtime capacity lever over the elastic pools ("cpu" /
        #: "gpu"); None (the default) keeps the static-pool behavior.
        self.steering = steering
        #: Optional write-ahead journal for decision state (DFT results,
        #: retrain triggers), powering ``repro.cli resume``.
        self.checkpoint = checkpoint
        self._rng = np.random.default_rng(rng_seed)

        self._lock = threading.Lock()
        self.models: list[SchnetSurrogate] = list(initial_models)
        self._model_refs: list[object] = [None] * config.n_ensemble
        self.audit_pool: deque[Structure] = deque()
        self.uncertainty_pool: list[Structure] = []
        self._sample_buffer: list[Structure] = []
        self.new_structures: list[tuple[Structure, float, np.ndarray]] = []
        self._since_retrain = 0
        self._retraining = False
        self._train_batch = 0
        self._sample_counter = itertools.count()
        self._cluster_counter = itertools.count(1000)
        self._rank_round = 0
        self._round_energies: dict[tuple[int, int], np.ndarray] | None = None
        self._round_structures: list[Structure] = []
        self._round_pending = 0

        self.results: dict[str, list[Result]] = {
            "simulate": [],
            "sample": [],
            "train": [],
            "infer": [],
        }
        self.task_failures: list[Result] = []
        #: (nominal time, new-structure count) progress curve.
        self.progress: list[tuple[float, int]] = [(0.0, 0)]

    # -- model hand-off ------------------------------------------------------
    def _model_for_submission(self, member: int):
        """The latest model for ``member``, proxied once per version so every
        consumer task shares the same store entry (ahead-of-time staging)."""
        with self._lock:
            ref = self._model_refs[member]
            if ref is None:
                model = self.models[member]
                if self.cross_store is not None:
                    ref = self.cross_store.proxy(model)
                else:
                    ref = model
                self._model_refs[member] = ref
            return ref

    def _pick_member(self) -> int:
        return int(self._rng.integers(self.config.n_ensemble))

    def _fresh_cluster(self) -> Structure:
        return make_water_cluster(
            self.config.n_waters, seed=next(self._cluster_counter)
        )

    # -- CPU task submitters ------------------------------------------------------
    @task_submitter(task_type="simulate")
    def submit_simulation(self) -> None:
        with self._lock:
            if len(self.new_structures) >= self.config.target_new_structures:
                return  # budget reached: park the slot
            if self.uncertainty_pool:
                structure = self.uncertainty_pool.pop(0)
            elif self.audit_pool:
                structure = self.audit_pool.popleft()
            else:
                structure = self._fresh_cluster()
        self.queues.send_request("run_dft", args=(structure,), topic="simulate")

    @task_submitter(task_type="sample")
    def submit_sampling(self) -> None:
        cfg = self.config
        index = next(self._sample_counter)
        progress = min(
            len(self.new_structures) / max(cfg.target_new_structures, 1), 1.0
        )
        n_steps = int(
            round(
                cfg.sampling_min_steps
                + (cfg.sampling_max_steps - cfg.sampling_min_steps) * progress
            )
        )
        member = self._pick_member()
        ref = self._model_for_submission(member)
        self.queues.send_request(
            "run_sampling",
            args=(ref, self._fresh_cluster()),
            kwargs={
                "n_steps": n_steps,
                "temperature": cfg.sampling_temperature,
                "seed": index,
                "duration": cfg.sampling_duration,
                "payload_bytes": cfg.sampling_payload,
            },
            topic="sample",
            # Proxied weights are shared by every sampler using this member;
            # the hint lets the sampling site pull them ahead of the task.
            prefetch=hints_for_proxies([ref], pin=True) if cfg.prefetch_hints else (),
        )

    # -- result processors ------------------------------------------------------------
    @result_processor(topic="simulate")
    def process_simulation(self, result: Result) -> None:
        assert self.resources is not None
        self.results["simulate"].append(result)
        if not result.success:
            self.task_failures.append(result)
            self.resources.release("simulate", 1)
            return
        record = result.access_value()
        if self.checkpoint is not None:
            # Write-ahead: the accepted DFT result is durable before the
            # in-memory pools consume it.
            self.checkpoint.note(
                "dft_result",
                structure=_encode_structure(record["structure"]),
                energy=float(record["energy"]),
                forces=np.asarray(record["forces"]).tolist(),
            )
        with self._lock:
            self.new_structures.append(
                (record["structure"], record["energy"], record["forces"])
            )
            count = len(self.new_structures)
            self.progress.append((get_clock().now(), count))
            self._since_retrain += 1
            trigger = (
                self._since_retrain >= self.config.retrain_after
                and not self._retraining
            )
            if trigger:
                self._retraining = True
                self._since_retrain = 0
                self._train_batch += 1
            batch = self._train_batch
            finished = count >= self.config.target_new_structures
        self.resources.release("simulate", 1)
        if trigger:
            if self.checkpoint is not None:
                self.checkpoint.note("retrain", batch=batch)
            self.set_event("retrain")
            # The learning threshold is hit: shift workers to the GPU lane
            # while the ensemble retrains (per bragg.py's steering move).
            steer(
                self.steering,
                self.config.steer_train_weights,
                thinker="finetuning",
                reason=f"retrain batch {batch}",
            )
        if finished:
            self.done.set()

    @result_processor(topic="sample")
    def process_sampling(self, result: Result) -> None:
        assert self.resources is not None
        self.results["sample"].append(result)
        if not result.success:
            self.task_failures.append(result)
            self.resources.release("sample", 1)
            return
        record = result.access_value()
        submit_round: list[Structure] | None = None
        with self._lock:
            self.audit_pool.append(record["last"])
            self._sample_buffer.extend(record["frames"])
            ready = (
                len(self._sample_buffer) >= self.config.uncertainty_batch
                and self._round_energies is None
            )
            if ready:
                submit_round = self._sample_buffer[: self.config.uncertainty_batch]
                self._sample_buffer = self._sample_buffer[
                    self.config.uncertainty_batch :
                ]
                self._rank_round += 1
                self._round_structures = submit_round
                self._round_energies = {}
                self._round_pending = 0
        self.resources.release("sample", 1)
        if submit_round is not None:
            self._submit_ranking(submit_round)

    def _submit_ranking(self, structures: list[Structure]) -> None:
        cfg = self.config
        chunks = [
            structures[i : i + cfg.inference_batch]
            for i in range(0, len(structures), cfg.inference_batch)
        ]
        with self._lock:
            self._round_pending = len(chunks) * cfg.n_ensemble
        for member in range(cfg.n_ensemble):
            ref = self._model_for_submission(member)
            hints = hints_for_proxies([ref], pin=True) if cfg.prefetch_hints else ()
            for chunk_id, chunk in enumerate(chunks):
                self.queues.send_request(
                    "infer_energies",
                    args=(ref, chunk),
                    prefetch=hints,
                    kwargs={
                        "duration": cfg.inference_duration
                        * len(chunk)
                        / max(cfg.inference_batch, 1),
                        "payload_bytes": cfg.inference_payload,
                    },
                    topic="infer",
                    task_info={
                        "round": self._rank_round,
                        "member": member,
                        "chunk": chunk_id,
                        "offset": chunk_id * cfg.inference_batch,
                    },
                )

    @result_processor(topic="infer")
    def process_inference(self, result: Result) -> None:
        self.results["infer"].append(result)
        if not result.success:
            self.task_failures.append(result)
            with self._lock:
                self._round_energies = None  # abandon the round
            return
        if result.task_info.get("round") != self._rank_round:
            return
        record = result.access_value()
        with self._lock:
            if self._round_energies is None:
                return
            key = (result.task_info["member"], result.task_info["chunk"])
            self._round_energies[key] = record["energies"]
            self._round_pending -= 1
            if self._round_pending > 0:
                return
            # Round complete: variance across members -> uncertainty pool.
            n = len(self._round_structures)
            matrix = np.full((self.config.n_ensemble, n), np.nan)
            for (member, chunk), energies in self._round_energies.items():
                offset = chunk * self.config.inference_batch
                matrix[member, offset : offset + len(energies)] = energies
            variance = np.nanstd(matrix, axis=0)
            order = np.argsort(-variance)[: self.config.uncertainty_pool_size]
            self.uncertainty_pool = [self._round_structures[int(i)] for i in order]
            self._round_energies = None
            self._round_structures = []

    # -- training ------------------------------------------------------------------------
    @event_responder(event="retrain")
    def start_retraining(self) -> None:
        cfg = self.config
        with self._lock:
            structures = [s for s, _, _ in self.new_structures]
            energies = np.array([e for _, e, _ in self.new_structures])
            batch = self._train_batch
            models = [self.models[m] for m in range(cfg.n_ensemble)]
        rng = np.random.default_rng(batch)
        for member, model in enumerate(models):
            size = max(4, int(round(0.8 * len(structures))))
            idx = rng.choice(len(structures), size=min(size, len(structures)), replace=False)
            self.queues.send_request(
                "train_schnet",
                args=(model, [structures[int(i)] for i in idx], energies[idx]),
                kwargs={
                    "duration": cfg.train_duration,
                    "epochs": cfg.train_epochs,
                    "seed": batch * 100 + member,
                },
                topic="train",
                task_info={"batch": batch, "member": member},
            )

    @result_processor(topic="train")
    def process_training(self, result: Result) -> None:
        self.results["train"].append(result)
        if not result.success:
            self.task_failures.append(result)
            with self._lock:
                self._retraining = False
            steer(
                self.steering,
                self.config.steer_sim_weights,
                thinker="finetuning",
                reason="train failure",
            )
            return
        model = result.access_value()
        member = result.task_info["member"]
        with self._lock:
            self.models[member] = model
            self._model_refs[member] = None  # next submission re-proxies
            batch = result.task_info["batch"]
            batch_done = all(
                r.task_info.get("batch") == result.task_info["batch"]
                for r in self.results["train"][-self.config.n_ensemble :]
            ) and sum(
                1
                for r in self.results["train"]
                if r.success and r.task_info.get("batch") == result.task_info["batch"]
            ) >= self.config.n_ensemble
            if batch_done:
                self._retraining = False
        if batch_done:
            # New models landed: return capacity to the DFT/sampling lane.
            steer(
                self.steering,
                self.config.steer_sim_weights,
                thinker="finetuning",
                reason=f"batch {batch} done",
            )

    # -- checkpoint / resume ---------------------------------------------------
    def export_state(self) -> dict:
        """JSON-safe decision state for :class:`CampaignCheckpoint`.

        Lighter than moldesign's: the accepted DFT results and retrain
        cadence are the decision state worth keeping; transient pools
        (audit/uncertainty/sample buffers) are regenerated by the sampling
        loop after resume.
        """
        with self._lock:
            return {
                "new_structures": [
                    {
                        "structure": _encode_structure(structure),
                        "energy": float(energy),
                        "forces": np.asarray(forces).tolist(),
                    }
                    for structure, energy, forces in self.new_structures
                ],
                "since_retrain": self._since_retrain,
                "train_batch": self._train_batch,
            }

    def restore_state(self, snapshot: dict | None, events: list[dict]) -> None:
        """Rebuild the accepted-structure ledger from snapshot + journaled
        events; call before ``start()``.  A resumed campaign keeps full
        credit toward ``target_new_structures`` — no accepted DFT result is
        ever recomputed — while the sampling pools restart cold."""
        state = {"new_structures": [], "since_retrain": 0, "train_batch": 0}
        if snapshot:
            state.update(snapshot)
        structures = [
            (
                _decode_structure(doc["structure"]),
                float(doc["energy"]),
                np.asarray(doc["forces"], dtype=float),
            )
            for doc in state["new_structures"]
        ]
        since_retrain = int(state["since_retrain"])
        train_batch = int(state["train_batch"])
        for event in events:
            if event["type"] == "dft_result":
                structures.append(
                    (
                        _decode_structure(event["structure"]),
                        float(event["energy"]),
                        np.asarray(event["forces"], dtype=float),
                    )
                )
                since_retrain += 1
            elif event["type"] == "retrain":
                since_retrain = 0
                train_batch = int(event["batch"])
        clock = get_clock()
        with self._lock:
            self.new_structures = structures
            self._since_retrain = since_retrain
            self._train_batch = train_batch
            self.progress = [(0.0, 0), (clock.now(), len(structures))] if structures else [(0.0, 0)]
            finished = len(structures) >= self.config.target_new_structures
        if finished:
            self.done.set()

    # -- resource balancing -----------------------------------------------------------------
    @agent(critical=False)
    def rebalance(self) -> None:
        """Hold the audit pool at its target size by shifting CPU slots
        between sampling and simulation (§III-B's allocation policy)."""
        assert self.resources is not None
        clock = get_clock()
        while not self.done.is_set():
            clock.sleep(5.0)
            with self._lock:
                audit = len(self.audit_pool)
            if audit < self.config.audit_pool_target:
                if self.resources.allocated("simulate") > 1:
                    self.resources.reallocate("simulate", "sample", 1, timeout=1.0)
            elif audit > 2 * self.config.audit_pool_target:
                if self.resources.allocated("sample") > 1:
                    self.resources.reallocate("sample", "simulate", 1, timeout=1.0)
