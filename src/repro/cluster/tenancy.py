"""Multi-tenant fair-share queueing with per-tenant quotas.

The cluster router serves many tenants from one bounded queue.  Two
mechanisms keep a heavy tenant from starving light ones:

* **Quotas** cap how much of the queue one tenant may occupy (checked
  by the engine's admission path, on top of the global capacity bound).
* **Fair-share batch formation** uses stride scheduling: each tenant
  carries a *pass* value that advances by ``1 / weight`` per request
  taken, and batch slots always go to the lowest pass — so over time
  tenants receive service proportional to their weights, with ties
  broken by tenant name.  Everything is deterministic.

With a single tenant the whole structure degenerates to the plain FIFO
:class:`~repro.serving.batcher.Batcher`: identical ready/deadline
semantics, identical pop order — which is what makes the one-tenant
:class:`~repro.serving.engine.ServingEngine` a FIFO batcher.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ServingError
from repro.serving.batcher import Batch, BatchPolicy
from repro.serving.request import InferenceRequest


@dataclass(frozen=True)
class TenantPolicy:
    """Fair-share weights and queue quotas per tenant.

    Attributes:
        weights: Tenant → fair-share weight; a tenant with weight 2
            receives twice the batch slots of a tenant with weight 1
            under contention.  Unlisted tenants get ``default_weight``.
        quotas: Tenant → max queued requests; arrivals beyond it are
            rejected with per-tenant accounting.  Unlisted tenants are
            bounded only by the global queue capacity.
        default_weight: Weight for tenants not named in ``weights``.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    quotas: Mapping[str, int] = field(default_factory=dict)
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        for tenant, weight in self.weights.items():
            if not math.isfinite(weight) or weight <= 0:
                raise ServingError(
                    f"tenant {tenant!r} weight must be finite and > 0, "
                    f"got {weight}"
                )
        for tenant, quota in self.quotas.items():
            if quota < 1:
                raise ServingError(
                    f"tenant {tenant!r} quota must be >= 1, got {quota}"
                )
        if not math.isfinite(self.default_weight) \
                or self.default_weight <= 0:
            raise ServingError(
                f"default_weight must be finite and > 0, "
                f"got {self.default_weight}"
            )

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def quota(self, tenant: str) -> int | None:
        return self.quotas.get(tenant)


class TenantQueueSet:
    """Per-tenant FIFO queues behind one stride-scheduled batch former.

    Mirrors the :class:`~repro.serving.batcher.Batcher` interface
    (``ready`` / ``next_deadline`` / ``next_expiry_s`` / ``expire`` /
    ``pop`` / ``pop_all``), plus per-tenant depth accounting for quota
    admission.  Request deadlines are tracked in a lazy min-heap, so
    the per-iteration expiry probe is O(1) instead of an O(depth) scan
    — at fleet scale the queue can hold thousands of requests.
    """

    def __init__(self, batch_policy: BatchPolicy, tenants: TenantPolicy):
        self.batch_policy = batch_policy
        self.tenants = tenants
        self._queues: dict[str, deque[InferenceRequest]] = {}
        self._pass: dict[str, float] = {}
        self._vtime = 0.0
        self._depth = 0
        self._deadline_heap: list[tuple[float, int]] = []
        self._queued_ids: set[int] = set()

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    def tenant_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def push(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._pass[tenant] = self._vtime
        elif not queue:
            # Reactivation: a tenant that went idle must not bank its
            # stale (low) pass into a burst — catch up to virtual time.
            self._pass[tenant] = max(self._pass[tenant], self._vtime)
        queue.append(request)
        self._depth += 1
        self._queued_ids.add(request.request_id)
        if request.deadline_s is not None:
            heapq.heappush(
                self._deadline_heap,
                (request.deadline_at_s, request.request_id),
            )

    def _active(self) -> list[tuple[str, deque[InferenceRequest]]]:
        return [(t, q) for t, q in self._queues.items() if q]

    def ready(self, now_s: float, degraded: bool = False) -> bool:
        """Whether a batch should launch at ``now_s`` (Batcher semantics)."""
        if not self._depth:
            return False
        if degraded or self._depth >= self.batch_policy.max_batch:
            return True
        return now_s >= self.next_deadline()

    def next_deadline(self) -> float:
        """When the oldest queued head's max-wait expires.

        Raises:
            ServingError: if every queue is empty.
        """
        heads = self._active()
        if not heads:
            raise ServingError("tenant queues are empty")
        oldest = min(q[0].arrival_s for _, q in heads)
        return oldest + self.batch_policy.max_wait_s

    def next_expiry_s(self) -> float:
        """Earliest queued request deadline (inf when none)."""
        heap = self._deadline_heap
        while heap and heap[0][1] not in self._queued_ids:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def expire(self, now_s: float) -> list[InferenceRequest]:
        """Remove and return queued requests whose deadline passed."""
        if self.next_expiry_s() > now_s:
            return []
        expired: list[InferenceRequest] = []
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            kept: deque[InferenceRequest] = deque()
            for request in queue:
                if request.expired(now_s):
                    expired.append(request)
                    self._queued_ids.discard(request.request_id)
                    self._depth -= 1
                else:
                    kept.append(request)
            self._queues[tenant] = kept
        return expired

    def pop(self, now_s: float) -> Batch:
        """Form a batch of up to ``max_batch`` stride-scheduled requests.

        Raises:
            ServingError: if every queue is empty.
        """
        if not self._depth:
            raise ServingError("tenant queues are empty")
        taken: list[InferenceRequest] = []
        while self._depth and len(taken) < self.batch_policy.max_batch:
            tenant = min(
                (t for t, q in self._queues.items() if q),
                key=lambda t: (self._pass[t], t),
            )
            request = self._queues[tenant].popleft()
            self._depth -= 1
            self._queued_ids.discard(request.request_id)
            taken.append(request)
            self._vtime = self._pass[tenant]
            self._pass[tenant] += 1.0 / self.tenants.weight(tenant)
        return Batch(requests=tuple(taken), formed_s=now_s)

    def pop_all(self) -> list[InferenceRequest]:
        """Drain everything (used to strand-drop unreachable work)."""
        drained: list[InferenceRequest] = []
        for queue in self._queues.values():
            drained.extend(queue)
            queue.clear()
        self._depth = 0
        self._queued_ids.clear()
        return drained
