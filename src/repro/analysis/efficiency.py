"""Whole-network evaluation: compile every layer, aggregate the results.

This is the path behind the paper's §V-C numbers: schedule each CONV/MM
layer of a network on one overlay configuration, sum the cycles, and
derive FPS, network hardware efficiency, DRAM traffic, and the EWOP work
left to the host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.cache import ScheduleCache
from repro.compiler.search import Schedule, schedule_network
from repro.overlay.config import OverlayConfig
from repro.sim.trace import DramTrace
from repro.units import OPS_PER_MACC
from repro.workloads.network import Network


@dataclass(frozen=True)
class LayerResult:
    """One layer's scheduled outcome within a network evaluation."""

    name: str
    schedule: Schedule

    @property
    def cycles(self) -> int:
        return self.schedule.cycles

    @property
    def hardware_efficiency(self) -> float:
        return self.schedule.hardware_efficiency

    @property
    def bottleneck(self) -> str:
        return self.schedule.estimate.bottleneck


@dataclass(frozen=True)
class NetworkResult:
    """Aggregate outcome of one network on one overlay configuration."""

    network: Network
    config: OverlayConfig
    objective: str
    layers: tuple[LayerResult, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------ #
    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def seconds_per_frame(self) -> float:
        return self.total_cycles / (self.config.clk_h_mhz * 1e6)

    @property
    def fps(self) -> float:
        return 1.0 / self.seconds_per_frame if self.total_cycles else 0.0

    @property
    def hardware_efficiency(self) -> float:
        """Network-level efficiency: useful MACCs over offered slots."""
        if not self.total_cycles:
            return 0.0
        return self.network.accelerated_maccs / (
            self.config.n_tpe * self.total_cycles
        )

    @property
    def attained_gops(self) -> float:
        if not self.total_cycles:
            return 0.0
        return (
            OPS_PER_MACC * self.network.accelerated_maccs
            / self.seconds_per_frame / 1e9
        )

    @property
    def mean_e_wbuf(self) -> float:
        """Weight-traffic-weighted WBUF efficiency across layers."""
        stored = sum(
            layer.schedule.layer.weight_words / max(layer.schedule.estimate.e_wbuf, 1e-9)
            for layer in self.layers
        )
        unique = sum(layer.schedule.layer.weight_words for layer in self.layers)
        return unique / stored if stored else 0.0

    @property
    def host_ewop_ops(self) -> int:
        """Element-wise operations delegated to the host CPU per frame."""
        return self.network.op_breakdown().ewop_ops

    @property
    def host_ops(self) -> int:
        """All host-side (0-MACC) operations per frame — EWOP plus the
        transformer-suite eltwise/softmax/norm layers.  Never feeds a
        per-MACC divisor: these layers contribute no MACCs."""
        return self.network.op_breakdown().host_ops

    def dram_trace(self) -> DramTrace:
        """Synthesize a frame-level DRAM trace from the layer estimates."""
        trace = DramTrace()
        cycle = 0
        for layer in self.layers:
            est = layer.schedule.estimate
            rd_words = int(est.c_dram_rd * self.config.dram_rd_words_per_cycle())
            wr_words = int(est.c_dram_wr * self.config.dram_wr_words_per_cycle())
            trace.record(cycle, "RD", rd_words, "layer")
            trace.record(cycle, "WR", wr_words, "layer")
            cycle += layer.cycles
        return trace

    def describe(self) -> str:
        return (
            f"{self.network.name} on {self.config.d1}x{self.config.d2}x"
            f"{self.config.d3} @ {self.config.clk_h_mhz:.0f} MHz: "
            f"{self.fps:.1f} FPS, HW eff {self.hardware_efficiency:.1%}, "
            f"E_WBUF {self.mean_e_wbuf:.2f}"
        )


def evaluate_network(
    network: Network,
    config: OverlayConfig,
    objective: str = "performance",
    cache: ScheduleCache | None = None,
) -> NetworkResult:
    """Schedule every accelerated layer of ``network`` and aggregate.

    Args:
        network: The workload.
        config: Overlay configuration to schedule onto.
        objective: Search objective for every layer.
        cache: Optional shared :class:`ScheduleCache` searching under
            ``objective``; one is created if omitted.
    """
    results = [
        LayerResult(name=schedule.layer.name, schedule=schedule)
        for schedule in schedule_network(network, config, objective, cache)
    ]
    return NetworkResult(
        network=network,
        config=config,
        objective=objective,
        layers=tuple(results),
    )
