"""Batched multi-overlay inference serving runtime.

The serving layer sits on top of the compiler/simulator stack and
answers system-level questions the per-layer model cannot: what
throughput a deployment sustains under open-loop traffic, where p99
latency knees as offered load approaches saturation, and how dynamic
batching (paper §I's batch → efficiency trade) moves both.

Everything runs on a deterministic virtual clock:

* :mod:`repro.serving.request` — requests + seeded arrival processes.
* :mod:`repro.serving.batcher` — dynamic batching and the batch-size →
  service-time model (compiled through :mod:`repro.compiler.search`).
* :mod:`repro.serving.scheduler` — service models for overlay replicas
  or a :func:`repro.analysis.partition.plan_deployment` pipeline.
* :mod:`repro.serving.admission` — bounded queues, backpressure, and
  graceful degradation to smaller batches under load.
* :mod:`repro.serving.engine` — :class:`ServingEngine`, the event-driven
  loop of :mod:`repro.cluster.engine` run as a one-rack, one-tenant
  fleet, including fault-tolerant execution against a
  :class:`repro.faults.FaultSchedule` (failover, deadline-aware retry,
  degraded-mode dispatch) and result-integrity handling under a
  :class:`repro.integrity.IntegrityPolicy` (ABFT detection, in-place
  correction, verified re-execution).
* :mod:`repro.serving.metrics` — throughput, p50/p95/p99, utilization,
  SLO-violation, availability, and drop-reason accounting over the
  run's request outcomes (completed, dropped, rejected).
"""

from repro.integrity.policy import IntegrityPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import (
    Batch,
    BatchCost,
    BatchPolicy,
    Batcher,
    BatchServiceModel,
)
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingReport, percentile
from repro.serving.request import (
    InferenceRequest,
    RetryPolicy,
    make_requests,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)
from repro.serving.scheduler import PipelineService, ReplicaService

__all__ = [
    "AdmissionPolicy",
    "Batch",
    "BatchCost",
    "BatchPolicy",
    "Batcher",
    "BatchServiceModel",
    "InferenceRequest",
    "IntegrityPolicy",
    "PipelineService",
    "ReplicaService",
    "RetryPolicy",
    "ServingEngine",
    "ServingReport",
    "make_requests",
    "percentile",
    "poisson_arrivals",
    "trace_arrivals",
    "uniform_arrivals",
]
