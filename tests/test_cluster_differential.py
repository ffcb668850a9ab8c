"""Differential tests: the queue and the router against brute-force scans.

:class:`TenantQueueSet` sheds expired requests by popping its deadline
heap and drops dead entries lazily; :class:`ClusterRouter` places work
by reading a stored ``routable`` flag.  Both must behave exactly like
the obvious O(queue) / O(fleet) scans below, which rebuild every answer
from scratch on every call.  Seeded random operation sequences compare
the two, including the order of every shed list and batch.
"""

from __future__ import annotations

import math
import random
from collections import deque

import pytest

from repro.cluster import (
    ClusterRouter,
    TenantPolicy,
    TenantQueueSet,
    build_fleet,
)
from repro.serving.batcher import BatchPolicy
from repro.serving.request import InferenceRequest


class RescanQueue:
    """Reference queue: per-tenant deques, every expiry a full rescan."""

    def __init__(self, batch_policy: BatchPolicy, tenants: TenantPolicy):
        self.batch_policy = batch_policy
        self.tenants = tenants
        self.queues: dict[str, deque[InferenceRequest]] = {}
        self.passes: dict[str, float] = {}
        self.vtime = 0.0

    @property
    def depth(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def tenant_depth(self, tenant: str) -> int:
        return len(self.queues.get(tenant, ()))

    def push(self, request: InferenceRequest) -> None:
        queue = self.queues.get(request.tenant)
        if queue is None:
            queue = self.queues[request.tenant] = deque()
            self.passes[request.tenant] = self.vtime
        elif not queue:
            self.passes[request.tenant] = max(
                self.passes[request.tenant], self.vtime
            )
        queue.append(request)

    def ready(self, now_s: float, degraded: bool) -> bool:
        if not self.depth:
            return False
        if degraded or self.depth >= self.batch_policy.max_batch:
            return True
        return now_s >= self.next_deadline()

    def next_deadline(self) -> float:
        return min(
            q[0].arrival_s for q in self.queues.values() if q
        ) + self.batch_policy.max_wait_s

    def next_expiry_s(self) -> float:
        return min(
            (r.deadline_at_s for q in self.queues.values() for r in q),
            default=math.inf,
        )

    def expire(self, now_s: float) -> list[InferenceRequest]:
        expired = []
        for tenant, queue in self.queues.items():
            expired += [r for r in queue if r.expired(now_s)]
            self.queues[tenant] = deque(
                r for r in queue if not r.expired(now_s)
            )
        return expired

    def pop(self) -> list[InferenceRequest]:
        taken = []
        while self.depth and len(taken) < self.batch_policy.max_batch:
            tenant = min(
                (t for t, q in self.queues.items() if q),
                key=lambda t: (self.passes[t], t),
            )
            taken.append(self.queues[tenant].popleft())
            self.vtime = self.passes[tenant]
            self.passes[tenant] += 1.0 / self.tenants.weight(tenant)
        return taken

    def pop_all(self) -> list[InferenceRequest]:
        drained = [r for q in self.queues.values() for r in q]
        for queue in self.queues.values():
            queue.clear()
        return drained


def _ids(requests) -> list[int]:
    return [r.request_id for r in requests]


def _queue_ops(seed: int, n_ops: int = 400) -> dict[str, int]:
    """Drive one random op sequence through both queues, comparing
    every answer; returns how often the interesting paths ran."""
    rng = random.Random(seed)
    names = ["alpha", "beta", "gamma"][:rng.randint(1, 3)]
    weights = {t: rng.choice([0.5, 1.0, 2.0, 3.0]) for t in names}
    batch_policy = BatchPolicy(max_batch=rng.choice([1, 2, 4, 8]),
                               max_wait_s=rng.choice([0.0, 1e-3, 3e-3]))
    tenants = TenantPolicy(weights=weights)
    fast = TenantQueueSet(batch_policy, tenants)
    ref = RescanQueue(batch_policy, tenants)
    seen = {"multi_tenant_sheds": 0, "repushed_sheds": 0, "pop_alls": 0}
    now = 0.0
    next_id = 0
    repushed: set[int] = set()
    out_of_queue: list[InferenceRequest] = []  # popped, may be re-pushed

    def push(request: InferenceRequest) -> None:
        fast.push(request)
        ref.push(request)

    for _ in range(n_ops):
        now += rng.choice([0.0, 0.0, 1e-4, 5e-4, 2e-3])
        op = rng.random()
        if op < 0.45:
            deadline = rng.choice([None, 1e-3, 2e-3, 4e-3, 8e-3])
            push(InferenceRequest(
                request_id=next_id, model="m", arrival_s=now,
                deadline_s=deadline, tenant=rng.choice(names),
            ))
            next_id += 1
        elif op < 0.55 and out_of_queue:
            # A retry: the same request object, pushed again.
            request = out_of_queue.pop(rng.randrange(len(out_of_queue)))
            repushed.add(request.request_id)
            push(request)
        elif op < 0.75:
            shed = fast.expire(now)
            assert _ids(shed) == _ids(ref.expire(now))
            seen["multi_tenant_sheds"] += len({r.tenant for r in shed}) > 1
            seen["repushed_sheds"] += any(
                r.request_id in repushed for r in shed
            )
        elif op < 0.97:
            if fast.depth:
                batch = fast.pop(now)
                assert _ids(batch.requests) == _ids(ref.pop())
                assert batch.formed_s == now
                out_of_queue += batch.requests
        else:
            drained = fast.pop_all()
            assert _ids(drained) == _ids(ref.pop_all())
            seen["pop_alls"] += bool(drained)
            out_of_queue += drained
        assert fast.depth == len(fast) == ref.depth
        for tenant in names:
            assert fast.tenant_depth(tenant) == ref.tenant_depth(tenant)
        assert fast.next_expiry_s() == ref.next_expiry_s()
        if fast.depth:
            assert fast.next_deadline() == ref.next_deadline()
        for degraded in (False, True):
            assert fast.ready(now, degraded) == ref.ready(now, degraded)
    return seen


QUEUE_SEEDS = range(40)


@pytest.mark.parametrize("seed", QUEUE_SEEDS)
def test_queue_matches_rescan_model(seed):
    _queue_ops(seed)


def test_queue_sequences_exercise_every_path():
    """Guard against a vacuous differential: the draws must shed two or
    more tenants in one ``expire`` call, shed a re-pushed request and
    drain a non-empty queue."""
    totals = {"multi_tenant_sheds": 0, "repushed_sheds": 0, "pop_alls": 0}
    for seed in QUEUE_SEEDS:
        for key, count in _queue_ops(seed).items():
            totals[key] += count
    assert all(totals.values()), totals


def _brute_free(router: ClusterRouter, now_s: float, avoid) -> object:
    candidates = [
        b for b in router.boards
        if b.healthy and b.powered and b.reachable and b.active
        and max(b.free_at_s, b.warm_at_s) <= now_s
    ]
    for board in candidates:
        if board.name not in avoid:
            return board
    return candidates[0] if candidates else None


def _brute_next_free(router: ClusterRouter) -> float:
    return min(
        (max(b.free_at_s, b.warm_at_s) for b in router.boards
         if b.healthy and b.powered and b.reachable and b.active),
        default=math.inf,
    )


@pytest.mark.parametrize("seed", range(40))
def test_router_placement_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    topo = build_fleet(rng.randint(1, 4), rng.randint(1, 5))
    router = ClusterRouter(topo)
    names = list(topo.board_names)
    racks = list(topo.rack_names)
    now = 0.0
    for _ in range(200):
        now += rng.choice([0.0, 1e-4, 1e-3])
        op = rng.randrange(10)
        name, rack = rng.choice(names), rng.choice(racks)
        if op == 0:
            router.crash(name, now)
        elif op == 1:
            router.recover(name, now)
        elif op == 2:
            router.power_down_rack(rack, now)
        elif op == 3:
            router.power_up_rack(rack, now, rng.choice([0.0, 2e-3]))
        elif op == 4:
            router.partition_rack(rack, now)
        elif op == 5:
            router.heal_rack(rack, now)
        elif op == 6:
            router.activate(name, now, rng.choice([0.0, 1e-3]))
        elif op == 7:
            router.deactivate(name)
        else:
            board = router.by_name(name)
            board.free_at_s = now + rng.choice([-1e-3, 0.0, 1e-3, 4e-3])
            board.warm_at_s = now + rng.choice([-2e-3, 0.0, 2e-3])
        for board in router.boards:
            assert board.routable == board.gates_open()
        avoid = frozenset(rng.sample(names, rng.randint(0, len(names))))
        probe_s = now + rng.choice([0.0, 1e-3, 3e-3])
        for avoided in (frozenset(), avoid):
            assert router.free_board(probe_s, avoided) is \
                _brute_free(router, probe_s, avoided)
        assert router.next_free_s() == _brute_next_free(router)
