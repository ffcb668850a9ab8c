"""Multi-tenant fair-share queueing: stride scheduling and quotas."""

import math

import pytest

from repro.cluster import TenantPolicy, TenantQueueSet
from repro.errors import ServingError
from repro.serving.batcher import Batcher, BatchPolicy
from repro.serving.request import InferenceRequest


def req(rid, arrival_s=0.0, tenant="default", deadline_s=None):
    return InferenceRequest(
        request_id=rid, model="m", arrival_s=arrival_s,
        deadline_s=deadline_s, tenant=tenant,
    )


class TestTenantPolicy:
    def test_defaults(self):
        policy = TenantPolicy()
        assert policy.weight("anyone") == 1.0
        assert policy.quota("anyone") is None

    def test_lookup(self):
        policy = TenantPolicy(
            weights={"alpha": 2.0}, quotas={"alpha": 8},
            default_weight=0.5,
        )
        assert policy.weight("alpha") == 2.0
        assert policy.weight("beta") == 0.5
        assert policy.quota("alpha") == 8
        assert policy.quota("beta") is None

    @pytest.mark.parametrize("weights", [
        {"t": 0.0}, {"t": -1.0}, {"t": math.nan}, {"t": math.inf},
    ])
    def test_invalid_weight(self, weights):
        with pytest.raises(ServingError):
            TenantPolicy(weights=weights)

    def test_invalid_quota(self):
        with pytest.raises(ServingError):
            TenantPolicy(quotas={"t": 0})

    @pytest.mark.parametrize("quota", [math.nan, 8.5])
    def test_non_integer_quota_rejected(self, quota):
        # A NaN quota used to admit without bound.
        with pytest.raises(ServingError, match="quota must be an integer"):
            TenantPolicy(quotas={"t": quota})

    def test_invalid_default_weight(self):
        with pytest.raises(ServingError):
            TenantPolicy(default_weight=0.0)


class TestSingleTenantDegeneratesToBatcher:
    """One tenant -> the queue must behave exactly like the FIFO
    Batcher; this is half of the ServingEngine bit-equivalence."""

    POLICY = BatchPolicy(max_batch=4, max_wait_s=1e-3)

    def _pair(self):
        return (
            TenantQueueSet(self.POLICY, TenantPolicy()),
            Batcher(self.POLICY),
        )

    def test_pop_order_matches(self):
        tset, batcher = self._pair()
        for i in range(10):
            request = req(i, arrival_s=i * 1e-4)
            tset.push(request)
            batcher.push(request)
        while len(batcher):
            a = tset.pop(1.0)
            b = batcher.pop(1.0)
            assert [r.request_id for r in a.requests] == \
                [r.request_id for r in b.requests]
            assert a.formed_s == b.formed_s

    def test_ready_and_deadline_match(self):
        tset, batcher = self._pair()
        assert not tset.ready(0.0)
        for i in range(2):
            request = req(i, arrival_s=i * 1e-4)
            tset.push(request)
            batcher.push(request)
        for now in (0.0, 0.5e-3, 1.0e-3, 2e-3):
            assert tset.ready(now) == batcher.ready(now)
        assert tset.next_deadline() == batcher.next_deadline()
        assert tset.ready(0.0, degraded=True)

    def test_expiry_matches(self):
        tset, batcher = self._pair()
        for i, deadline in enumerate([5e-3, 2e-3, None]):
            request = req(i, deadline_s=deadline)
            tset.push(request)
            batcher.push(request)
        assert tset.next_expiry_s() == batcher.next_expiry_s() == 2e-3
        a = tset.expire(3e-3)
        b = batcher.expire(3e-3)
        assert [r.request_id for r in a] == [r.request_id for r in b]
        assert tset.depth == batcher.depth == 2


class TestStrideFairness:
    POLICY = BatchPolicy(max_batch=1, max_wait_s=1e-3)

    def _loaded(self, weights, n_per_tenant=30):
        tset = TenantQueueSet(self.POLICY, TenantPolicy(weights=weights))
        rid = 0
        for tenant in weights:
            for _ in range(n_per_tenant):
                tset.push(req(rid, tenant=tenant))
                rid += 1
        return tset

    def test_service_proportional_to_weight(self):
        tset = self._loaded({"heavy": 2.0, "light": 1.0})
        taken = [tset.pop(0.0).requests[0].tenant for _ in range(30)]
        assert taken.count("heavy") == 20
        assert taken.count("light") == 10

    def test_equal_weights_alternate_with_name_tiebreak(self):
        tset = self._loaded({"a": 1.0, "b": 1.0}, n_per_tenant=3)
        taken = [tset.pop(0.0).requests[0].tenant for _ in range(6)]
        assert taken == ["a", "b", "a", "b", "a", "b"]

    def test_batch_mixes_tenants(self):
        tset = TenantQueueSet(
            BatchPolicy(max_batch=4, max_wait_s=1e-3),
            TenantPolicy(weights={"a": 1.0, "b": 1.0}),
        )
        for i in range(4):
            tset.push(req(i, tenant="a" if i < 2 else "b"))
        batch = tset.pop(0.0)
        assert sorted(r.tenant for r in batch.requests) == \
            ["a", "a", "b", "b"]

    def test_idle_tenant_cannot_bank_credit(self):
        # "idle" sits out 20 pops; on return it must not receive a
        # make-up burst — pass catches up to the scheduler's vtime.
        tset = TenantQueueSet(
            self.POLICY, TenantPolicy(weights={"busy": 1.0, "idle": 1.0}),
        )
        tset.push(req(0, tenant="idle"))
        assert tset.pop(0.0).requests[0].tenant == "idle"
        rid = 1
        for _ in range(20):
            tset.push(req(rid, tenant="busy"))
            rid += 1
        for _ in range(20):
            assert tset.pop(0.0).requests[0].tenant == "busy"
        for i in range(4):
            tset.push(req(rid + i, tenant="idle"))
            tset.push(req(rid + 10 + i, tenant="busy"))
        taken = [tset.pop(0.0).requests[0].tenant for _ in range(8)]
        # Fair interleave, not an idle-tenant burst.
        assert taken.count("idle") == 4
        assert taken[:3] != ["idle", "idle", "idle"]

    def test_depth_accounting(self):
        tset = self._loaded({"a": 1.0, "b": 1.0}, n_per_tenant=2)
        assert tset.depth == len(tset) == 4
        assert tset.tenant_depth("a") == 2
        assert tset.tenant_depth("missing") == 0
        tset.pop(0.0)
        assert tset.depth == 3

    def test_pop_empty_raises(self):
        tset = TenantQueueSet(self.POLICY, TenantPolicy())
        with pytest.raises(ServingError):
            tset.pop(0.0)
        with pytest.raises(ServingError):
            tset.next_deadline()

    def test_pop_all_drains_everything(self):
        tset = self._loaded({"a": 1.0, "b": 1.0}, n_per_tenant=3)
        drained = tset.pop_all()
        assert len(drained) == 6
        assert tset.depth == 0
        assert tset.next_expiry_s() == math.inf

    def test_expire_spans_tenants(self):
        tset = TenantQueueSet(
            self.POLICY, TenantPolicy(weights={"a": 1.0, "b": 1.0}),
        )
        tset.push(req(0, tenant="a", deadline_s=1e-3))
        tset.push(req(1, tenant="b", deadline_s=2e-3))
        tset.push(req(2, tenant="b", deadline_s=9e-3))
        expired = tset.expire(5e-3)
        assert sorted(r.request_id for r in expired) == [0, 1]
        assert tset.tenant_depth("a") == 0
        assert tset.tenant_depth("b") == 1

    def test_lazy_expiry_heap_skips_departed(self):
        tset = TenantQueueSet(
            BatchPolicy(max_batch=2, max_wait_s=1e-3), TenantPolicy(),
        )
        tset.push(req(0, deadline_s=1e-3))
        tset.push(req(1, deadline_s=5e-3))
        tset.pop(0.0)  # takes both; heap entries are now stale
        assert tset.next_expiry_s() == math.inf
        assert tset.expire(10.0) == []
