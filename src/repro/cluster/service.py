"""Fleet-facing service models: board-named costs + cold-start time.

A fleet serves one model from many identical boards, so the cost side
is exactly the existing service models — :class:`BatchServiceModel`
compiled once and shared, or a :func:`plan_deployment` pipeline per
board — with two cluster-specific additions:

* replica names come from the :class:`FleetTopology` (boards, not
  ``overlay{i}``), so fault schedules and health domains address real
  boards;
* a **cold-start cost**: the time to stream the compiled schedule's
  weight footprint back into board DRAM over the configured write
  bandwidth.  A board returning from rack power loss (DRAM wiped) or
  activated by the autoscaler pays it before becoming routable.
"""

from __future__ import annotations

from repro.cluster.topology import FleetTopology
from repro.errors import ServingError
from repro.overlay.config import OverlayConfig
from repro.serving.batcher import BatchServiceModel
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.units import BYTES_PER_WORD
from repro.workloads.network import Network


def weight_load_s(model: BatchServiceModel) -> float:
    """Compiled-schedule weight-reload time for one board, seconds.

    The footprint is the model's accelerated-layer weights (the operand
    set resident in board DRAM); loading streams it at the overlay's
    DRAM write bandwidth.  This is the real cold-start floor: a board
    cannot serve a single request before its weights are back.
    """
    weight_bytes = sum(
        getattr(layer, "weight_words", 0)
        for layer in model.network.accelerated_layers()
    ) * BYTES_PER_WORD
    return weight_bytes / (model.config.dram_wr_gbps * 1e9)


class FleetService(ReplicaService):
    """N identical single-overlay boards named by the fleet topology."""

    def __init__(
        self,
        model: BatchServiceModel,
        topology: FleetTopology,
        cold_start_s: float | None = None,
    ):
        super().__init__(model, n_replicas=topology.n_boards)
        self.topology = topology
        self.cold_start_s = (
            cold_start_s if cold_start_s is not None
            else weight_load_s(model)
        )
        if self.cold_start_s < 0:
            raise ServingError(
                f"cold_start_s must be >= 0, got {self.cold_start_s}"
            )

    def replica_names(self) -> list[str]:
        return list(self.topology.board_names)


class FleetPipelineService(PipelineService):
    """One multi-FPGA pipeline per board, boards named by the topology.

    The :func:`~repro.analysis.partition.plan_deployment` placement and
    per-stage compilation are exactly the
    :class:`PipelineService`; only the naming and the cold-start cost
    (summed over the stages' weight footprints) are fleet-aware.
    """

    def __init__(
        self,
        network: Network,
        config: OverlayConfig,
        n_devices: int,
        topology: FleetTopology,
        objective: str = "balance",
        cold_start_s: float | None = None,
    ):
        super().__init__(
            network, config, n_devices,
            n_replicas=topology.n_boards, objective=objective,
        )
        self.topology = topology
        self.cold_start_s = (
            cold_start_s if cold_start_s is not None
            else sum(weight_load_s(stage) for stage in self._stages)
        )
        if self.cold_start_s < 0:
            raise ServingError(
                f"cold_start_s must be >= 0, got {self.cold_start_s}"
            )

    def replica_names(self) -> list[str]:
        return list(self.topology.board_names)
