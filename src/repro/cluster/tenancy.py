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
from repro.serving.request import InferenceRequest, require_count


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
            require_count(f"tenant {tenant!r} quota", quota)
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
    admission.

    Request deadlines live in a min-heap keyed by push: ``expire`` pops
    exactly the requests whose deadline has passed, so shedding ``k``
    requests costs O(k log depth) however deep the queue is, and the
    probe of a queue with nothing to shed is O(1) amortized.  A shed
    request stays in its tenant's deque as a dead entry until it
    reaches the head; every deque's head is kept live, so ``pop`` and
    ``next_deadline`` only ever see queued requests.  An entry is live
    only while it belongs to its request's *current* push: a retried
    request is pushed again under the same id.
    """

    def __init__(self, batch_policy: BatchPolicy, tenants: TenantPolicy):
        self.batch_policy = batch_policy
        self.tenants = tenants
        #: Tenant → (push seq, request) entries in push order; tenants
        #: in first-push order.
        self._queues: dict[str, deque[tuple[int, InferenceRequest]]] = {}
        self._rank: dict[str, int] = {}
        self._live: dict[str, int] = {}
        self._pass: dict[str, float] = {}
        self._vtime = 0.0
        self._seq = 0
        #: request_id → push seq of every queued request (the live set).
        self._queued: dict[int, int] = {}
        self._deadline_heap: list[tuple[float, int, InferenceRequest]] = []

    def __len__(self) -> int:
        return len(self._queued)

    @property
    def depth(self) -> int:
        return len(self._queued)

    def tenant_depth(self, tenant: str) -> int:
        return self._live.get(tenant, 0)

    def push(self, request: InferenceRequest) -> None:
        tenant = request.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rank[tenant] = len(self._rank)
            self._live[tenant] = 0
            self._pass[tenant] = self._vtime
        elif not queue:
            # Reactivation: a tenant that went idle must not bank its
            # stale (low) pass into a burst — catch up to virtual time.
            self._pass[tenant] = max(self._pass[tenant], self._vtime)
        self._seq += 1
        queue.append((self._seq, request))
        self._live[tenant] += 1
        self._queued[request.request_id] = self._seq
        if request.deadline_s is not None:
            heapq.heappush(
                self._deadline_heap,
                (request.deadline_at_s, self._seq, request),
            )

    def _trim(self, queue: deque[tuple[int, InferenceRequest]]) -> None:
        """Drop dead entries off the head of ``queue``."""
        queued = self._queued
        while queue and queued.get(queue[0][1].request_id) != queue[0][0]:
            queue.popleft()

    def ready(self, now_s: float, degraded: bool = False) -> bool:
        """Whether a batch should launch at ``now_s`` (Batcher semantics)."""
        if not self._queued:
            return False
        if degraded or len(self._queued) >= self.batch_policy.max_batch:
            return True
        return now_s >= self.next_deadline()

    def next_deadline(self) -> float:
        """When the oldest queued head's max-wait expires.

        Raises:
            ServingError: if every queue is empty.
        """
        if not self._queued:
            raise ServingError("tenant queues are empty")
        oldest = min(q[0][1].arrival_s for q in self._queues.values() if q)
        return oldest + self.batch_policy.max_wait_s

    def next_expiry_s(self) -> float:
        """Earliest queued request deadline (inf when none)."""
        heap, queued = self._deadline_heap, self._queued
        while heap and queued.get(heap[0][2].request_id) != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def expire(self, now_s: float) -> list[InferenceRequest]:
        """Remove and return queued requests whose deadline passed, in
        tenant first-push order, then queue order."""
        heap, queued = self._deadline_heap, self._queued
        expired: list[tuple[int, int, InferenceRequest]] = []
        while heap and heap[0][0] <= now_s:
            _, seq, request = heapq.heappop(heap)
            if queued.get(request.request_id) == seq:
                del queued[request.request_id]
                self._live[request.tenant] -= 1
                expired.append((self._rank[request.tenant], seq, request))
        if not expired:
            return []
        expired.sort()  # push seqs are unique: requests never compare
        for tenant in {request.tenant for _, _, request in expired}:
            self._trim(self._queues[tenant])
        return [request for _, _, request in expired]

    def pop(self, now_s: float) -> Batch:
        """Form a batch of up to ``max_batch`` stride-scheduled requests.

        Raises:
            ServingError: if every queue is empty.
        """
        if not self._queued:
            raise ServingError("tenant queues are empty")
        taken: list[InferenceRequest] = []
        while self._queued and len(taken) < self.batch_policy.max_batch:
            tenant = min(
                (t for t, q in self._queues.items() if q),
                key=lambda t: (self._pass[t], t),
            )
            queue = self._queues[tenant]
            _, request = queue.popleft()
            del self._queued[request.request_id]
            self._live[tenant] -= 1
            self._trim(queue)
            taken.append(request)
            self._vtime = self._pass[tenant]
            self._pass[tenant] += 1.0 / self.tenants.weight(tenant)
        return Batch(requests=tuple(taken), formed_s=now_s)

    def pop_all(self) -> list[InferenceRequest]:
        """Drain everything (used to strand-drop unreachable work)."""
        queued = self._queued
        drained = [
            request
            for queue in self._queues.values()
            for seq, request in queue
            if queued.get(request.request_id) == seq
        ]
        for tenant, queue in self._queues.items():
            queue.clear()
            self._live[tenant] = 0
        queued.clear()
        self._deadline_heap.clear()
        return drained
