"""Whole-network pipeline simulation: overlay + host CPU.

Chains layers of a *sequential* network through the full stack: every
CONV/MM executes on the cycle-level overlay simulator (bit-true: coverage
proven, output the golden model's), the wide accumulators requantize at
each layer boundary, EWOP layers run on the :class:`repro.sim.host.HostCpu`,
and the pipeline model overlaps host work with the next layer's overlay
work — the paper's "EWOP processed by host CPU in a pipeline fashion".

Topology restriction: the flat :class:`repro.workloads.Network` list can
express straight-line networks exactly; branching topologies (inception
modules, residual skips) would need a graph IR and are evaluated through
the analytical path instead.  The simulator raises on ops it cannot chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.cache import ScheduleCache
from repro.compiler.codegen import compile_schedule
from repro.errors import SimulationError
from repro.fixedpoint import to_int16
from repro.overlay.config import OverlayConfig
from repro.sim.cycle import CycleSimulator, LayerRun
from repro.sim.host import HostCpu, choose_shift, requantize
from repro.workloads.layers import (
    HOST_KINDS,
    NETWORK_INPUT,
    ConvLayer,
    EltwiseLayer,
    LayerKind,
    MatMulLayer,
)
from repro.workloads.network import Network

AcceleratedLayer = ConvLayer | MatMulLayer


@dataclass(frozen=True)
class StageResult:
    """One executed layer within a pipeline run."""

    name: str
    kind: str
    overlay_cycles: int
    host_cycles: int
    #: Requantization shift applied after this stage (accelerated only).
    shift: int


@dataclass
class PipelineRun:
    """Result of simulating one input through a network."""

    output: np.ndarray
    stages: list[StageResult] = field(default_factory=list)
    #: Serial overlay time (layers run back to back on one overlay).
    overlay_cycles: int = 0
    #: Host time, overlapped with the overlay in the pipeline model.
    host_cycles: int = 0

    @property
    def pipelined_cycles(self) -> int:
        """End-to-end cycles with host EWOP hidden under overlay work.

        The host processes layer i's EWOPs while the overlay runs layer
        i+1, so the pipeline is bound by the slower of the two totals.
        """
        return max(self.overlay_cycles, self.host_cycles)

    @property
    def host_bound(self) -> bool:
        return self.host_cycles > self.overlay_cycles


class NetworkSimulator:
    """Bit-true, cycle-level simulation of sequential networks."""

    def __init__(self, config: OverlayConfig, host: HostCpu | None = None):
        self.config = config
        self.host = host or HostCpu()
        self._cache = ScheduleCache(config)
        self._simulator = CycleSimulator(config)

    # ------------------------------------------------------------------ #
    def _expected_input_shape(self, layer: AcceleratedLayer) -> tuple[int, ...]:
        if isinstance(layer, ConvLayer):
            return (layer.in_channels, layer.in_h, layer.in_w)
        return (layer.in_features, layer.batch)

    @staticmethod
    def _reshape_for_host(layer, activation: np.ndarray) -> np.ndarray:
        """Coerce the chained activation to the host layer's (F, B) shape."""
        expected = (layer.n_features, layer.batch)
        if activation.shape == expected:
            return activation
        if activation.size == layer.n_features * layer.batch:
            return activation.reshape(expected)
        raise SimulationError(
            f"layer {layer.name!r} expects input {expected}, "
            f"chain carries {activation.shape}"
        )

    def run(
        self,
        network: Network,
        inputs: np.ndarray,
        weights: dict[str, np.ndarray],
    ) -> PipelineRun:
        """Push one input through every layer of ``network``.

        Args:
            network: A sequential network (each layer consumes the
                previous one's output).
            inputs: int16 input tensor shaped for the first layer.
            weights: Layer name -> int16 weight tensor for every CONV/MM.

        Raises:
            SimulationError: on shape breaks in the chain, missing
                weights, or unchainable EWOPs.
        """
        activation = to_int16(inputs)
        run = PipelineRun(output=activation)
        saved: dict[str, np.ndarray] = {NETWORK_INPUT: activation}
        for layer in network.layers:
            if layer.kind in HOST_KINDS:
                skip = None
                if isinstance(layer, EltwiseLayer) and layer.source:
                    if layer.source not in saved:
                        raise SimulationError(
                            f"eltwise layer {layer.name!r} references "
                            f"unknown source {layer.source!r}"
                        )
                    skip = saved[layer.source]
                if layer.kind != LayerKind.EWOP:
                    activation = self._reshape_for_host(layer, activation)
                    if skip is not None:
                        skip = self._reshape_for_host(layer, skip)
                activation = self.host.execute(layer, activation, skip=skip)
                host_cycles = self.host.cycles_for(layer)
                run.host_cycles += host_cycles
                saved[layer.name] = activation
                run.stages.append(StageResult(
                    name=layer.name, kind=layer.kind.value,
                    overlay_cycles=0, host_cycles=host_cycles, shift=0,
                ))
                continue

            expected = self._expected_input_shape(layer)
            if isinstance(layer, MatMulLayer) and activation.ndim != 2:
                activation = activation.reshape(-1, 1)  # flatten for FC
            if activation.shape != expected:
                raise SimulationError(
                    f"layer {layer.name!r} expects input {expected}, "
                    f"chain carries {activation.shape}"
                )
            source = getattr(layer, "weight_source", None)
            if layer.name in weights:
                layer_weights = weights[layer.name]
            elif source is not None:
                # Attention-style matmul: the "weight" operand is a
                # run-time activation produced earlier in the chain.
                if source not in saved:
                    raise SimulationError(
                        f"layer {layer.name!r} streams weights from "
                        f"unknown source {source!r}"
                    )
                streamed = saved[source]
                if streamed.size != layer.out_features * layer.in_features:
                    raise SimulationError(
                        f"layer {layer.name!r} weight source {source!r} has "
                        f"{streamed.size} words, needs "
                        f"{layer.out_features * layer.in_features}"
                    )
                layer_weights = streamed.reshape(
                    layer.out_features, layer.in_features
                )
            else:
                raise SimulationError(f"no weights provided for {layer.name!r}")

            schedule = self._cache.schedule(layer)
            compiled = compile_schedule(schedule)
            layer_run: LayerRun = self._simulator.run_layer(
                compiled, layer_weights, activation
            )
            shift = choose_shift(layer_run.output)
            activation = requantize(layer_run.output, shift)
            saved[layer.name] = activation
            run.overlay_cycles += layer_run.cycles
            run.stages.append(StageResult(
                name=layer.name, kind=layer.kind.value,
                overlay_cycles=layer_run.cycles, host_cycles=0, shift=shift,
            ))
        run.output = activation
        return run
