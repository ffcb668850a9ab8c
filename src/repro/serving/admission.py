"""Admission control: bounded queues, backpressure, graceful degradation.

A serving queue that grows without bound converts overload into
unbounded latency; a bounded queue converts it into explicit rejections
the client can retry elsewhere.  Between "healthy" and "full" sits a
degraded band: past ``degrade_watermark`` of capacity the batcher stops
waiting out its formation deadline and launches whatever is queued as
soon as a replica frees — smaller batches, lower per-batch efficiency,
but the queue drains instead of collapsing into the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServingError
from repro.serving.request import require_count


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue bound and degradation knobs.

    Attributes:
        capacity: Hard queue bound; arrivals beyond it are rejected
            (backpressure to the client).
        degrade_watermark: Fraction of capacity above which batch
            formation stops waiting for ``max_wait_s`` and dispatches
            immediately with whatever is queued.
    """

    capacity: int = 256
    degrade_watermark: float = 0.75

    def __post_init__(self) -> None:
        require_count("capacity", self.capacity)
        if not 0.0 < self.degrade_watermark <= 1.0:
            raise ServingError(
                f"degrade_watermark must be in (0, 1], got "
                f"{self.degrade_watermark}"
            )

    def admit(self, queue_depth: int) -> bool:
        """Whether an arrival fits behind ``queue_depth`` queued requests."""
        return queue_depth < self.capacity

    def degraded(self, queue_depth: int, fault_pressure: bool = False) -> bool:
        """Whether to waive batch formation: the queue is at or past the
        watermark, or the engine reports *fault pressure* (part of the
        fleet is down, so draining beats batching)."""
        if fault_pressure:
            return True
        return queue_depth >= self.degrade_watermark * self.capacity
