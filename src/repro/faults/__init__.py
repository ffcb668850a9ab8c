"""Deterministic fault injection and degraded-mode execution.

The paper evaluates a fully healthy ``D1×D2×D3`` grid; a production
deployment cannot assume one.  This package supplies the robustness
machinery the serving and compiler layers build on:

* :mod:`repro.faults.events` — the fault taxonomy (TPE stuck-at /
  transient tile faults, DRAM bit-flips, bus/link glitches, replica
  crash / slowdown / recovery), all on the virtual clock.
* :mod:`repro.faults.schedule` — seeded, deterministic
  :class:`FaultSchedule` generation (per-replica Poisson processes).
* :mod:`repro.faults.mask` — fault masks and the largest-healthy-
  sub-grid derivation.
* :mod:`repro.faults.degrade` — fault-aware compilation: re-run the
  schedule search on the sub-grid and report the efficiency delta.
* :mod:`repro.faults.monitor` — the end-of-run health report (MTTR,
  downtime, uptime, per-rack rollup) built from the cluster router's
  board ledger.

Everything is seeded and virtual-clock driven: an identical seed and
fault schedule reproduce a chaos run bit-for-bit.
"""

from repro.faults.events import (
    DramBitFlip,
    FaultEvent,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
    TpeCoord,
)
from repro.faults.schedule import (
    FaultSchedule,
    generate_fault_schedule,
    random_tpe_mask,
)
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.faults.degrade import DegradationReport, degraded_compile
from repro.faults.monitor import DomainHealth, HealthReport

__all__ = [
    "DegradationReport",
    "DomainHealth",
    "DramBitFlip",
    "FaultEvent",
    "FaultMask",
    "FaultSchedule",
    "HealthReport",
    "LinkFault",
    "ReplicaCrash",
    "ReplicaRecovery",
    "ReplicaSlowdown",
    "TPEFault",
    "TpeCoord",
    "degraded_compile",
    "generate_fault_schedule",
    "largest_healthy_subgrid",
    "random_tpe_mask",
]
