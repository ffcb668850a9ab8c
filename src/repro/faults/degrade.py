"""Fault-aware compilation: recompile a workload for a degraded grid.

Given a fault mask, :func:`degraded_compile` derives the largest healthy
sub-grid (:func:`~repro.faults.mask.largest_healthy_subgrid`), re-runs
the analytical schedule search for every accelerated layer on it, and
reports the cost of running degraded: cycle inflation, modeled
throughput retention, and the hardware-efficiency delta against the
healthy overlay.  This is the quantitative answer to "how gracefully
does the deployment degrade": masking a slice of the grid should cost
about that slice of throughput, not a cliff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.compiler.cache import ScheduleCache
from repro.compiler.search import schedule_network
from repro.faults.events import TpeCoord
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.overlay.config import OverlayConfig


@dataclass(frozen=True)
class DegradationReport:
    """Healthy-vs-degraded compilation outcome for one network.

    Attributes:
        network: Workload name.
        healthy: The intact overlay configuration.
        degraded: The largest healthy sub-grid the mask allows.
        n_masked: Masked TPE count.
        healthy_cycles: Batch-1 execution cycles on the intact grid.
        degraded_cycles: Batch-1 execution cycles on the sub-grid.
        total_maccs: MACC work of the network's accelerated layers.
    """

    network: str
    healthy: OverlayConfig
    degraded: OverlayConfig
    n_masked: int
    healthy_cycles: int
    degraded_cycles: int
    total_maccs: int

    @property
    def masked_fraction(self) -> float:
        return self.n_masked / self.healthy.n_tpe

    @property
    def tpe_fraction_kept(self) -> float:
        return self.degraded.n_tpe / self.healthy.n_tpe

    @property
    def slowdown(self) -> float:
        """Service-time inflation factor (>= 1 in practice)."""
        return self.degraded_cycles / self.healthy_cycles

    @property
    def throughput_factor(self) -> float:
        """Modeled throughput retained (1.0 = no degradation)."""
        return self.healthy_cycles / self.degraded_cycles

    @property
    def healthy_efficiency(self) -> float:
        """Aggregate hardware efficiency on the intact grid."""
        return self.total_maccs / (self.healthy_cycles * self.healthy.n_tpe)

    @property
    def degraded_efficiency(self) -> float:
        """Aggregate hardware efficiency on the degraded sub-grid."""
        return self.total_maccs / (self.degraded_cycles * self.degraded.n_tpe)

    @property
    def efficiency_delta(self) -> float:
        """Degraded minus healthy efficiency (positive = sub-grid is
        *better* utilized, the usual case when layers tile a smaller
        grid with less padding)."""
        return self.degraded_efficiency - self.healthy_efficiency

    def describe(self) -> str:
        h, d = self.healthy, self.degraded
        return (
            f"{self.network}: mask {self.n_masked} TPEs "
            f"({self.masked_fraction:.1%}) -> grid "
            f"{h.d1}x{h.d2}x{h.d3} => {d.d1}x{d.d2}x{d.d3} "
            f"({self.tpe_fraction_kept:.1%} TPEs kept); throughput "
            f"{self.throughput_factor:.1%} of healthy, efficiency "
            f"{self.healthy_efficiency:.1%} => {self.degraded_efficiency:.1%}"
        )


def degraded_compile(
    network,
    config: OverlayConfig,
    mask: FaultMask | Collection[TpeCoord],
    objective: str = "performance",
    *,
    cache: ScheduleCache | None = None,
) -> DegradationReport:
    """Compile ``network`` healthy and degraded; report the delta.

    Both compiles go through ``cache`` (a fresh one when None), which is
    keyed by config and shape: a caller sweeping many masks over one
    network/config pair (e.g. the chaos degradation curve) passes one
    cache, so the healthy grid and every sub-grid several masks share
    are each searched once.

    Raises:
        FaultError: if the mask leaves no healthy sub-grid.
        ScheduleError: if a layer cannot be scheduled on either grid, or
            ``cache`` searches under another objective.
    """
    if not isinstance(mask, FaultMask):
        mask = FaultMask.from_coords(mask)
    degraded_config = largest_healthy_subgrid(config, mask)
    if cache is None:
        cache = ScheduleCache(config, objective=objective)
    healthy_cycles, degraded_cycles = (
        sum(s.cycles
            for s in schedule_network(network, grid, objective, cache))
        for grid in (config, degraded_config)
    )
    return DegradationReport(
        network=network.name,
        healthy=config,
        degraded=degraded_config,
        n_masked=len(mask),
        healthy_cycles=healthy_cycles,
        degraded_cycles=degraded_cycles,
        total_maccs=sum(
            layer.maccs for layer in network.accelerated_layers()
        ),
    )
