"""Service models for overlay replicas or a multi-FPGA pipeline.

Two deployment shapes, one cost interface (``latency_s`` /
``occupancy_s`` / ``latency_split`` / ``degrade_slowdown`` /
``replica_names``):

* :class:`ReplicaService` — N identical single-overlay replicas, each
  serving whole batches end-to-end.  A batch occupies its replica for the
  full service time.
* :class:`PipelineService` — one logical server built from
  :func:`repro.analysis.partition.plan_deployment`: the model's layers
  are split across devices and batches stream through the stages.  A
  batch's *latency* is the sum of all stage times (fill), but the
  pipeline accepts the next batch after only the *bottleneck* stage time
  (initiation interval), so occupancy < latency.

Placement is not here: the serving loop
(:class:`~repro.cluster.engine.ClusterEngine`) places batches with the
:class:`~repro.cluster.router.ClusterRouter`, which serves a service of
either shape as one rack with one board per replica.
"""

from __future__ import annotations

import dataclasses
from typing import Collection

from repro.analysis.partition import plan_deployment
from repro.compiler.cache import CacheStats, ScheduleCache
from repro.errors import ServingError
from repro.faults.events import TpeCoord
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.overlay.config import OverlayConfig
from repro.serving.batcher import BatchServiceModel
from repro.workloads.network import Network


class ReplicaService:
    """Service model for N identical single-overlay replicas."""

    def __init__(self, model: BatchServiceModel, n_replicas: int = 1):
        if n_replicas < 1:
            raise ServingError(f"need >= 1 replica, got {n_replicas}")
        self.model = model
        self.n_replicas = n_replicas
        self._degraded: dict[tuple[int, int, int], BatchServiceModel] = {}

    def latency_s(self, batch_size: int) -> float:
        return self.model.service_s(batch_size)

    def occupancy_s(self, batch_size: int) -> float:
        return self.model.service_s(batch_size)

    def latency_split(self, batch_size: int) -> tuple[float, float]:
        """(compute_s, dram_transfer_s) decomposition of the healthy
        service time — the tracer uses the ratio to subdivide a batch's
        service span."""
        cost = self.model.cost(batch_size)
        return cost.compute_s, cost.transfer_s

    def cache_stats(self) -> CacheStats:
        return self.model.cache.stats()

    def replica_names(self) -> list[str]:
        return [f"overlay{i}" for i in range(self.n_replicas)]

    def degrade_slowdown(
        self, masked: Collection[TpeCoord], batch_size: int
    ) -> float:
        """Service-time inflation of running on the largest healthy
        sub-grid that avoids ``masked`` TPEs, at ``batch_size``.

        The degraded grid's :class:`BatchServiceModel` is compiled once
        per distinct sub-grid shape and memoized; the returned factor
        multiplies the healthy service time (1.0 = no masked TPEs).

        Raises:
            FaultError: if no healthy sub-grid remains.
        """
        if not masked:
            return 1.0
        config = largest_healthy_subgrid(
            self.model.config, FaultMask.from_coords(masked)
        )
        if config.grid == self.model.config.grid:
            return 1.0
        if config.grid not in self._degraded:
            self._degraded[config.grid] = BatchServiceModel(
                self.model.network, config
            )
        degraded_s = self._degraded[config.grid].service_s(batch_size)
        return max(1.0, degraded_s / self.model.service_s(batch_size))


class PipelineService:
    """Service model for one multi-FPGA pipeline (optionally replicated).

    Built from :func:`plan_deployment`: each pipeline stage gets its own
    :class:`BatchServiceModel` over its partition, compiled against the
    stage's residency outcome (resident stages drop the per-frame weight
    stream).  Compiled schedules are shared across replicas — the
    pipelines are identical, so one set of schedule caches serves all.
    """

    def __init__(
        self,
        network: Network,
        config: OverlayConfig,
        n_devices: int,
        n_replicas: int = 1,
        objective: str = "balance",
        store=None,
    ):
        if n_replicas < 1:
            raise ServingError(f"need >= 1 replica, got {n_replicas}")
        plan = plan_deployment(network, config, n_devices=n_devices,
                               objective=objective)
        if not plan.stages:
            raise ServingError(
                f"deployment plan for {network.name!r} has no stages"
            )
        self.plan = plan
        self.n_replicas = n_replicas
        self._stages = []
        self._degraded: dict[
            tuple[int, tuple[int, int, int]], BatchServiceModel
        ] = {}
        for stage in plan.stages:
            stage_config = (
                dataclasses.replace(config, weights_resident=True)
                if stage.resident else config
            )
            # Stages share one persistent store safely: the store key
            # includes the stage's config signature, so resident and
            # non-resident stages never collide.
            self._stages.append(BatchServiceModel(
                stage.partition, stage_config,
                objective=objective,
                cache=ScheduleCache(stage_config, objective=objective,
                                    store=store),
            ))

    @property
    def n_devices(self) -> int:
        return len(self._stages)

    def latency_s(self, batch_size: int) -> float:
        """Pipeline fill: a batch traverses every stage in sequence."""
        return sum(s.service_s(batch_size) for s in self._stages)

    def occupancy_s(self, batch_size: int) -> float:
        """Initiation interval: the bottleneck stage gates admission."""
        return max(s.service_s(batch_size) for s in self._stages)

    def latency_split(self, batch_size: int) -> tuple[float, float]:
        """(compute_s, dram_transfer_s) summed across the pipeline's
        stages — the fill latency's decomposition."""
        costs = [s.cost(batch_size) for s in self._stages]
        return (
            sum(c.compute_s for c in costs),
            sum(c.transfer_s for c in costs),
        )

    def cache_stats(self) -> CacheStats:
        """Aggregate schedule-cache counters across the pipeline stages."""
        stats = [s.cache.stats() for s in self._stages]
        return CacheStats(
            hits=sum(s.hits for s in stats),
            misses=sum(s.misses for s in stats),
            evictions=sum(s.evictions for s in stats),
            size=sum(s.size for s in stats),
            max_entries=None,
            persistent_hits=sum(s.persistent_hits for s in stats),
            persistent_misses=sum(s.persistent_misses for s in stats),
            persistent_stores=sum(s.persistent_stores for s in stats),
            persistent_corrupt=sum(s.persistent_corrupt for s in stats),
            has_store=any(s.has_store for s in stats),
        )

    def replica_names(self) -> list[str]:
        return [
            f"pipeline{i}x{self.n_devices}" for i in range(self.n_replicas)
        ]

    def degrade_slowdown(
        self, masked: Collection[TpeCoord], batch_size: int
    ) -> float:
        """Pipeline service inflation under a per-device TPE mask.

        Approximation: the mask is applied to every stage's grid (the
        stages share the replica's physical overlay shape) and the
        inflation of the *bottleneck* stage is returned, since the
        initiation interval gates pipeline throughput.  Each stage's
        degraded :class:`BatchServiceModel` is memoized per (stage,
        sub-grid shape), as in :meth:`ReplicaService.degrade_slowdown`.

        Raises:
            FaultError: if no healthy sub-grid remains.
        """
        if not masked:
            return 1.0
        mask = FaultMask.from_coords(masked)
        worst = 1.0
        for index, stage in enumerate(self._stages):
            config = largest_healthy_subgrid(stage.config, mask)
            if config.grid == stage.config.grid:
                continue
            key = (index, config.grid)
            if key not in self._degraded:
                self._degraded[key] = BatchServiceModel(
                    stage.network, config
                )
            degraded = self._degraded[key]
            worst = max(
                worst, degraded.service_s(batch_size)
                / stage.service_s(batch_size)
            )
        return worst
