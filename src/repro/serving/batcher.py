"""Dynamic batching and the batch-size → service-time model.

The paper's introduction (§I) observes that MM-heavy workloads are
weight-bandwidth-bound at batch 1 and recover hardware efficiency as the
batch grows, at a latency cost.  :class:`BatchServiceModel` makes that
trade concrete for serving: each batch size compiles the model's MM
layers with the batch dimension folded in (``P`` columns amortize every
streamed weight) through :mod:`repro.compiler.search`, reusing schedules
across batch sizes through one shared :class:`~repro.compiler.cache.
ScheduleCache`.  CONV layers have no batch loop in the mapping space, so
a batch of B frames runs them back-to-back (B× the per-frame cycles).

:class:`Batcher` implements the standard dynamic-batching policy: launch
when ``max_batch`` requests are waiting, or when the oldest request has
waited ``max_wait_s``, whichever comes first.  The serving loop queues
through :class:`~repro.cluster.tenancy.TenantQueueSet`; the plain FIFO
:class:`Batcher` is the reference a one-tenant queue set is tested
against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.compiler.cache import ScheduleCache
from repro.errors import ServingError
from repro.overlay.config import OverlayConfig
from repro.serving.request import (
    InferenceRequest,
    require_count,
    require_finite,
)
from repro.units import BYTES_PER_WORD
from repro.workloads.layers import LayerKind, MatMulLayer
from repro.workloads.network import Network


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs.

    Attributes:
        max_batch: Largest batch the scheduler may launch.
        max_wait_s: Deadline on batch formation — the oldest queued
            request never waits longer than this before launch (the
            latency half of the batch/efficiency trade).
    """

    max_batch: int = 8
    max_wait_s: float = 5e-3

    def __post_init__(self) -> None:
        require_count("max_batch", self.max_batch)
        require_finite("max_wait_s", self.max_wait_s)
        if self.max_wait_s < 0:
            raise ServingError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )


@dataclass(frozen=True)
class Batch:
    """A formed batch, ready to dispatch to one replica."""

    requests: tuple[InferenceRequest, ...]
    formed_s: float

    @property
    def size(self) -> int:
        return len(self.requests)


class Batcher:
    """FIFO queue with max-batch / max-wait launch conditions.

    The serving loop does not use it: it is the FIFO reference that a
    one-tenant :class:`~repro.cluster.tenancy.TenantQueueSet` must match
    pop for pop (``tests/test_cluster_tenancy.py``).
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._queue: deque[InferenceRequest] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    def push(self, request: InferenceRequest) -> None:
        self._queue.append(request)

    def ready(self, now_s: float, degraded: bool = False) -> bool:
        """Whether a batch should launch at ``now_s``.

        ``degraded`` (set by admission control under load) waives the
        formation wait: any queued work launches as soon as a replica
        frees, trading batch efficiency for queue drain.
        """
        if not self._queue:
            return False
        if degraded or len(self._queue) >= self.policy.max_batch:
            return True
        # Same expression as next_deadline(): with floats,
        # ``now - arrival >= wait`` can disagree with
        # ``now >= arrival + wait`` exactly at the deadline instant, and
        # the engine would spin on a deadline event that never fires.
        return now_s >= self._queue[0].arrival_s + self.policy.max_wait_s

    def next_deadline(self) -> float:
        """Virtual time at which the oldest request's max-wait expires."""
        if not self._queue:
            raise ServingError("batcher queue is empty")
        return self._queue[0].arrival_s + self.policy.max_wait_s

    def next_expiry_s(self) -> float:
        """Earliest request deadline in the queue (inf when none)."""
        return min(
            (r.deadline_at_s for r in self._queue), default=float("inf")
        )

    def expire(self, now_s: float) -> list[InferenceRequest]:
        """Remove and return queued requests whose deadline has passed."""
        if not self._queue:
            return []
        expired = [r for r in self._queue if r.expired(now_s)]
        if expired:
            self._queue = deque(
                r for r in self._queue if not r.expired(now_s)
            )
        return expired

    def pop(self, now_s: float) -> Batch:
        """Form a batch of up to ``max_batch`` oldest requests."""
        if not self._queue:
            raise ServingError("batcher queue is empty")
        taken = []
        while self._queue and len(taken) < self.policy.max_batch:
            taken.append(self._queue.popleft())
        return Batch(requests=tuple(taken), formed_s=now_s)

    def pop_all(self) -> list[InferenceRequest]:
        """Drain the whole queue (used to strand-drop unreachable work)."""
        drained = list(self._queue)
        self._queue.clear()
        return drained


@dataclass(frozen=True)
class BatchCost:
    """Modelled cost of serving one batch on one overlay."""

    batch_size: int
    compute_cycles: int
    compute_s: float
    transfer_s: float

    @property
    def service_s(self) -> float:
        """Σ layer cycles / fclk + DRAM transfer."""
        return self.compute_s + self.transfer_s


class BatchServiceModel:
    """Batch-size → service-time for one network on one overlay config.

    Every distinct batch size triggers one compilation pass; MM layers
    re-schedule with the batch folded into their ``P`` dimension (the §I
    efficiency recovery), CONV layers reuse their per-frame schedule B
    times.  All passes look up one :class:`ScheduleCache` under this
    model's ``config``, so a serving run pays for each distinct (shape,
    batch) once.
    """

    def __init__(
        self,
        network: Network,
        config: OverlayConfig,
        objective: str = "performance",
        cache: ScheduleCache | None = None,
    ):
        if not network.accelerated_layers():
            raise ServingError(
                f"network {network.name!r} has no accelerated layers to serve"
            )
        self.network = network
        self.config = config
        # Explicit None test: a fresh ScheduleCache is empty and falsy.
        if cache is None:
            cache = ScheduleCache(config, objective=objective)
        self.cache = cache
        self._costs: dict[int, BatchCost] = {}

    def cost(self, batch_size: int) -> BatchCost:
        """Service cost of one batch of ``batch_size`` requests."""
        if batch_size < 1:
            raise ServingError(f"batch size must be >= 1, got {batch_size}")
        if batch_size not in self._costs:
            self._costs[batch_size] = self._compile(batch_size)
        return self._costs[batch_size]

    def service_s(self, batch_size: int) -> float:
        return self.cost(batch_size).service_s

    def _compile(self, batch_size: int) -> BatchCost:
        cycles = 0
        for layer in self.network.accelerated_layers():
            if layer.kind == LayerKind.MM:
                assert isinstance(layer, MatMulLayer)
                batched = replace(layer, batch=layer.batch * batch_size)
                cycles += self.cache.schedule(batched, self.config).cycles
            else:
                schedule = self.cache.schedule(layer, self.config)
                cycles += schedule.cycles * batch_size
        compute_s = cycles / (self.config.clk_h_mhz * 1e6)
        return BatchCost(
            batch_size=batch_size,
            compute_cycles=cycles,
            compute_s=compute_s,
            transfer_s=self._transfer_s(batch_size),
        )

    def _transfer_s(self, batch_size: int) -> float:
        """Host↔DRAM time for the batch's network inputs and outputs."""
        accel = self.network.accelerated_layers()
        in_bytes = accel[0].input_words * BYTES_PER_WORD * batch_size
        out_bytes = accel[-1].output_words * BYTES_PER_WORD * batch_size
        return (
            in_bytes / (self.config.dram_rd_gbps * 1e9)
            + out_bytes / (self.config.dram_wr_gbps * 1e9)
        )
