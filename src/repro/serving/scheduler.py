"""Service models for overlay replicas or a multi-FPGA pipeline.

One cost model, two deployment shapes.  A service is N identical
replicas, and each replica serves a batch through a tuple of stage
models (:class:`BatchServiceModel`, one per device; the cost model is
:class:`StagedService`):

* *latency* is the sum of the stage times (pipeline fill);
* *occupancy* is the bottleneck stage time (initiation interval): the
  replica accepts the next batch once its slowest stage frees.

A single-overlay replica is the one-stage case, and that equivalence is
exact: the sum and the max of one float are that float, so the
one-stage numbers are the stage's own, bit for bit.

* :class:`ReplicaService` — N identical single-overlay replicas, each
  serving whole batches end-to-end (occupancy == latency).
* :class:`PipelineService` — N replicas of one pipeline built from
  :func:`repro.analysis.partition.plan_deployment`: the model's layers
  are split across devices and batches stream through the stages, so
  occupancy < latency.

Placement is not here: the serving loop
(:class:`~repro.cluster.engine.ClusterEngine`) places batches with the
:class:`~repro.cluster.router.ClusterRouter`, which serves a service of
either shape as one rack with one board per replica.
"""

from __future__ import annotations

import dataclasses
from typing import Collection, Sequence

from repro.analysis.partition import plan_deployment
from repro.compiler.cache import CacheStats, ScheduleCache
from repro.errors import ServingError
from repro.faults.events import TpeCoord
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.overlay.config import OverlayConfig
from repro.serving.batcher import BatchServiceModel
from repro.serving.request import require_count
from repro.workloads.network import Network


class StagedService:
    """Cost model of identical replicas, each a pipeline of stages.

    Args:
        stages: One :class:`BatchServiceModel` per pipeline stage, in
            the order a batch traverses them, all over one schedule
            cache.  Every replica shares them (and so that cache).
        names: One name per replica.
    """

    def __init__(
        self, stages: Sequence[BatchServiceModel], names: Sequence[str]
    ):
        self._stages = tuple(stages)
        self._names = tuple(names)
        self.cache = self._stages[0].cache
        self._degraded: dict[
            tuple[int, tuple[int, int, int]], BatchServiceModel
        ] = {}

    @property
    def n_replicas(self) -> int:
        return len(self._names)

    @property
    def n_devices(self) -> int:
        """Devices per replica: one per stage."""
        return len(self._stages)

    def latency_s(self, batch_size: int) -> float:
        """Pipeline fill: a batch traverses every stage in sequence."""
        return sum(s.service_s(batch_size) for s in self._stages)

    def occupancy_s(self, batch_size: int) -> float:
        """Initiation interval: the bottleneck stage gates admission."""
        return max(s.service_s(batch_size) for s in self._stages)

    def latency_split(self, batch_size: int) -> tuple[float, float]:
        """(compute_s, dram_transfer_s) summed across the stages — the
        fill latency's decomposition; the tracer uses the ratio to
        subdivide a batch's service span."""
        costs = [s.cost(batch_size) for s in self._stages]
        return (
            sum(c.compute_s for c in costs),
            sum(c.transfer_s for c in costs),
        )

    def cache_stats(self) -> CacheStats:
        """Counters of the schedule cache every stage shares."""
        return self.cache.stats()

    def replica_names(self) -> list[str]:
        return list(self._names)

    def degrade_slowdown(
        self, masked: Collection[TpeCoord], batch_size: int
    ) -> float:
        """Service inflation under a per-device stuck-TPE mask.

        Each stage runs on the largest healthy sub-grid of its overlay
        that avoids the ``masked`` TPEs (the stages share the replica's
        physical overlay shape), compiled with the search objective of
        the service's cache.  The inflation of the worst stage is
        returned: for a pipeline that is the bottleneck approximation
        (the initiation interval gates throughput), for one stage it is
        exact.  Each degraded :class:`BatchServiceModel` is compiled
        once per (stage, sub-grid shape) and memoized; 1.0 = no
        inflation.

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
                    stage.network, config, objective=self.cache.objective
                )
            worst = max(
                worst, self._degraded[key].service_s(batch_size)
                / stage.service_s(batch_size)
            )
        return worst


class ReplicaService(StagedService):
    """Service model for N identical single-overlay replicas: one stage,
    replicas named ``overlay{i}``."""

    def __init__(self, model: BatchServiceModel, n_replicas: int = 1):
        require_count("n_replicas", n_replicas)
        super().__init__(
            (model,), [f"overlay{i}" for i in range(n_replicas)]
        )
        self.model = model


class PipelineService(StagedService):
    """Service model for one multi-FPGA pipeline (optionally replicated).

    Built from :func:`plan_deployment`: each pipeline stage gets its own
    :class:`BatchServiceModel` over its partition, compiled against the
    stage's residency outcome (resident stages drop the per-frame weight
    stream).  The plan, every stage and every replica compile through
    one :class:`ScheduleCache`, keyed by config and shape: ``cache``, or
    a ``balance`` cache over ``store`` (WBUF efficiency decides
    residency); passing both raises :class:`ServingError`.  Replicas
    are named ``pipeline{i}x{n_devices}``.
    """

    def __init__(
        self,
        network: Network,
        config: OverlayConfig,
        n_devices: int,
        n_replicas: int = 1,
        store=None,
        cache: ScheduleCache | None = None,
    ):
        require_count("n_replicas", n_replicas)
        if cache is None:
            cache = ScheduleCache(config, objective="balance", store=store)
        elif store is not None:
            raise ServingError("pass the store to the cache, not both")
        plan = plan_deployment(network, config, n_devices=n_devices,
                               objective=cache.objective, cache=cache)
        if not plan.stages:
            raise ServingError(
                f"deployment plan for {network.name!r} has no stages"
            )
        stages = []
        for stage in plan.stages:
            stage_config = (
                dataclasses.replace(config, weights_resident=True)
                if stage.resident else config
            )
            stages.append(
                BatchServiceModel(stage.partition, stage_config, cache=cache)
            )
        super().__init__(stages, [
            f"pipeline{i}x{len(stages)}" for i in range(n_replicas)
        ])
        self.plan = plan
