"""Multi-FPGA model partitioning (paper §II-B1).

When a model's weights exceed one device's aggregate WBUF, a multi-FPGA
system splits the layers across devices so the weight-stationary scheme
survives.  :func:`partition_by_weight_groups` balances *unique* weight
bytes (layers tied through a ``weight_group`` — e.g. unrolled LSTM
timesteps — stay together), and :func:`plan_deployment` evaluates the
resulting pipeline, switching each partition to resident weights when its
stored footprint fits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.analysis.efficiency import NetworkResult, evaluate_network
from repro.compiler.cache import ScheduleCache
from repro.errors import FTDLError, PartitionError
from repro.overlay.config import OverlayConfig
from repro.units import BYTES_PER_WORD
from repro.workloads.layers import HOST_KINDS
from repro.workloads.network import Network


def partition_by_weight_groups(network: Network, n_devices: int) -> list[Network]:
    """Split layers into up to ``n_devices`` groups of roughly equal
    unique *stored* weight bytes.

    Weight groups are atomic; host layers (EWOP/eltwise/softmax/norm)
    follow their most recent accelerated producer.  Layers that stream
    run-time activations through the weight port (``weight_source``)
    store nothing, so they weigh zero in the balance but still anchor a
    group.  Returns only non-empty partitions.

    Raises:
        FTDLError: if ``n_devices`` is not positive.
    """
    if n_devices < 1:
        raise FTDLError(f"need >= 1 device, got {n_devices}")
    group_sizes: dict[str, int] = {}
    for layer in network.layers:
        if layer.kind in HOST_KINDS:
            continue
        key = getattr(layer, "weight_group", None) or layer.name
        group_sizes.setdefault(key, layer.parameter_words)

    total = sum(group_sizes.values())
    target = total / n_devices if n_devices else total
    assignment: dict[str, int] = {}
    device, acc = 0, 0
    for key, words in group_sizes.items():
        assignment[key] = device
        acc += words
        if acc >= target and device < n_devices - 1:
            device, acc = device + 1, 0

    buckets: list[list] = [[] for _ in range(n_devices)]
    current = 0
    for layer in network.layers:
        if layer.kind not in HOST_KINDS:
            key = getattr(layer, "weight_group", None) or layer.name
            current = assignment[key]
        buckets[current].append(layer)

    return [
        Network(
            name=f"{network.name}.part{i}",
            application=network.application,
            layers=tuple(layers),
        )
        for i, layers in enumerate(buckets)
        if layers
    ]


@dataclass(frozen=True)
class DeviceStage:
    """One pipeline stage of a multi-FPGA deployment."""

    partition: Network
    result: NetworkResult
    resident: bool
    stored_bytes: int


@dataclass(frozen=True)
class DeploymentPlan:
    """A pipelined multi-FPGA deployment of one network."""

    network: Network
    config: OverlayConfig
    stages: tuple[DeviceStage, ...] = field(default_factory=tuple)

    @property
    def n_devices(self) -> int:
        return len(self.stages)

    @property
    def bottleneck_cycles(self) -> int:
        """Slowest stage — the pipeline's inverse throughput."""
        return max((s.result.total_cycles for s in self.stages), default=0)

    @property
    def pipeline_fps(self) -> float:
        if not self.bottleneck_cycles:
            return 0.0
        return self.config.clk_h_mhz * 1e6 / self.bottleneck_cycles

    @property
    def all_resident(self) -> bool:
        return all(stage.resident for stage in self.stages)


def plan_deployment(
    network: Network,
    config: OverlayConfig,
    n_devices: int,
    objective: str = "balance",
    require_resident: bool = False,
    cache: ScheduleCache | None = None,
) -> DeploymentPlan:
    """Partition ``network`` across ``n_devices`` identical overlays.

    Each partition compiles with ``objective`` (balance by default, since
    WBUF efficiency decides residency); partitions whose *stored* weight
    footprint fits the device's aggregate WBUF re-compile with resident
    weights, dropping their streaming bandwidth cost.

    ``require_resident`` enforces the point of a multi-FPGA deployment
    (§II-B1): every stage's stored weights must fit its device's WBUF.

    Every compile goes through ``cache`` (a fresh one when None), so a
    caller that serves the plan reuses its searches.

    Raises:
        PartitionError: if ``network`` has no accelerated layers — there
            is nothing to deploy, and returning an empty plan would let
            the zero silently poison downstream throughput math.  Also
            raised under ``require_resident`` when the network is too
            large for ``n_devices`` of this device: some stage's weights
            still exceed the aggregate WBUF.
        ScheduleError: if some layer cannot be scheduled on ``config``
            at all (e.g. the network is too large for the device's
            buffers at any tiling).
    """
    if not network.accelerated_layers():
        raise PartitionError(
            f"network {network.name!r} has no CONV/MM layers to deploy"
        )
    if cache is None:
        cache = ScheduleCache(config, objective=objective)
    wbuf_budget = config.n_tpe * config.s_wbuf_words * BYTES_PER_WORD
    stages = []
    for part in partition_by_weight_groups(network, n_devices):
        if not part.accelerated_layers():
            continue
        result = evaluate_network(part, config, objective, cache)
        stored_bytes = int(
            part.weight_bytes / max(result.mean_e_wbuf, 1e-9)
        )
        resident = stored_bytes <= wbuf_budget
        if resident:
            resident_config = dataclasses.replace(config, weights_resident=True)
            result = evaluate_network(part, resident_config, objective, cache)
        stages.append(DeviceStage(
            partition=part,
            result=result,
            resident=resident,
            stored_bytes=stored_bytes,
        ))
    if require_resident and not all(stage.resident for stage in stages):
        worst = max(stages, key=lambda s: s.stored_bytes)
        raise PartitionError(
            f"network {network.name!r} does not fit {n_devices} device(s) "
            f"with resident weights: stage {worst.partition.name!r} stores "
            f"{worst.stored_bytes:,} B against a WBUF budget of "
            f"{wbuf_budget:,} B"
        )
    return DeploymentPlan(network=network, config=config, stages=tuple(stages))
