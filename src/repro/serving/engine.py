"""The single-deployment serving engine.

:class:`ServingEngine` serves one :class:`~repro.serving.scheduler.
ReplicaService` or :class:`~repro.serving.scheduler.PipelineService`
(or any duck-typed service with the same cost interface) through the
repo's one discrete-event serving loop,
:class:`~repro.cluster.engine.ClusterEngine`, configured as a fleet of
size one: one rack holding one board per replica, one tenant (the
default :class:`~repro.cluster.tenancy.TenantPolicy`), hedged retries
off and no autoscaler.  Fault-tolerant execution, integrity handling,
tracing and metrics are the loop's; see :mod:`repro.cluster.engine`.

The ``DROP_*`` reasons live in :mod:`repro.serving.request` and are
re-exported here.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.engine import ClusterEngine
from repro.faults.schedule import FaultSchedule
from repro.integrity.policy import IntegrityPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.metrics import ServingReport
from repro.serving.request import (
    DROP_DEADLINE,
    DROP_NO_REPLICA,
    DROP_RETRY_EXHAUSTED,
    DROP_SDC,
    InferenceRequest,
    RetryPolicy,
)
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer

__all__ = [
    "DROP_DEADLINE",
    "DROP_NO_REPLICA",
    "DROP_RETRY_EXHAUSTED",
    "DROP_SDC",
    "ServingEngine",
]


class ServingEngine(ClusterEngine):
    """Run one arrival trace through batcher → router → replicas.

    The arguments are :class:`~repro.cluster.engine.ClusterEngine`'s
    without the fleet knobs: requests all share one fair-share queue
    (tenants with the default weight and no quota), a retried request
    may land on the replica that just failed it, and every replica
    serves from the start of the run.
    """

    def __init__(
        self,
        service: ReplicaService | PipelineService,
        batch_policy: BatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        slo_s: float = 10e-3,
        fault_schedule: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        integrity_policy: "IntegrityPolicy | str" = IntegrityPolicy.OFF,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(
            service,
            batch_policy=batch_policy,
            admission_policy=admission_policy,
            slo_s=slo_s,
            fault_schedule=fault_schedule,
            retry_policy=retry_policy,
            integrity_policy=integrity_policy,
            hedge_retries=False,
            tracer=tracer,
            metrics=metrics,
        )

    def run(self, requests: Sequence[InferenceRequest]) -> ServingReport:
        """Serve ``requests`` (sorted by arrival) to completion."""
        return super().run(requests).core
