"""repro.cluster — fault-tolerant fleet-scale serving.

Racks of overlay boards behind a self-healing router: correlated
failure-domain faults, hedged deadline-aware retries, metrics-driven
autoscaling with real cold-start costs, and tenant-aware fair-share
admission.  :class:`ClusterEngine` is the repo's one serving loop; the
single-deployment :class:`~repro.serving.engine.ServingEngine` runs it
as a one-rack, one-tenant fleet.
"""

from repro.cluster.autoscale import AutoscalePolicy, Autoscaler
from repro.cluster.engine import ClusterEngine
from repro.cluster.events import (
    DOMAIN_EVENT_KINDS,
    CorrelatedDramFault,
    DomainFaultEvent,
    NetworkHeal,
    NetworkPartition,
    RackPowerLoss,
    RackPowerRestore,
    generate_domain_fault_schedule,
)
from repro.cluster.report import ClusterReport, TenantStats
from repro.cluster.router import BoardState, ClusterRouter
from repro.cluster.service import FleetService, weight_load_s
from repro.cluster.tenancy import TenantPolicy, TenantQueueSet
from repro.cluster.topology import (
    Board,
    FleetTopology,
    Rack,
    build_fleet,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "Board",
    "BoardState",
    "ClusterEngine",
    "ClusterReport",
    "ClusterRouter",
    "CorrelatedDramFault",
    "DOMAIN_EVENT_KINDS",
    "DomainFaultEvent",
    "FleetService",
    "FleetTopology",
    "NetworkHeal",
    "NetworkPartition",
    "Rack",
    "RackPowerLoss",
    "RackPowerRestore",
    "TenantPolicy",
    "TenantQueueSet",
    "TenantStats",
    "build_fleet",
    "generate_domain_fault_schedule",
    "weight_load_s",
]
