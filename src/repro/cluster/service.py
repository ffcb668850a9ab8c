"""Fleet-facing service model: board-named costs + cold-start time.

A fleet serves one model from many identical boards, so the cost side
is exactly :class:`~repro.serving.scheduler.ReplicaService` — one
:class:`BatchServiceModel` compiled once and shared — with two
cluster-specific additions:

* replica names come from the :class:`FleetTopology` (boards, not
  ``overlay{i}``), so fault schedules and health domains address real
  boards;
* a **cold-start cost**: the time to stream the compiled schedule's
  weight footprint back into board DRAM over the configured write
  bandwidth.  A board returning from rack power loss (DRAM wiped) or
  activated by the autoscaler pays it before becoming routable.
"""

from __future__ import annotations

import math

from repro.cluster.topology import FleetTopology
from repro.errors import ServingError
from repro.serving.batcher import BatchServiceModel
from repro.serving.scheduler import ReplicaService
from repro.units import BYTES_PER_WORD


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
    """N identical single-overlay boards named by the fleet topology.

    ``cold_start_s`` defaults to the summed :func:`weight_load_s` of the
    service's stages.

    Raises:
        ServingError: if ``cold_start_s`` is not finite or is negative.
    """

    def __init__(
        self,
        model: BatchServiceModel,
        topology: FleetTopology,
        cold_start_s: float | None = None,
    ):
        super().__init__(model, n_replicas=topology.n_boards)
        self._names = tuple(topology.board_names)
        self.topology = topology
        if cold_start_s is None:
            cold_start_s = sum(weight_load_s(s) for s in self._stages)
        if not math.isfinite(cold_start_s) or cold_start_s < 0:
            raise ServingError(
                f"cold_start_s must be finite and >= 0, got {cold_start_s}"
            )
        self.cold_start_s = cold_start_s
