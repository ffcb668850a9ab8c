"""Dynamic batching policy and the batch → service-time model."""

import math

import numpy as np
import pytest

from repro.compiler.cache import ScheduleCache
from repro.errors import ServingError
from repro.serving.batcher import (
    Batcher,
    BatchPolicy,
    BatchServiceModel,
)
from repro.serving.request import InferenceRequest, make_requests
from repro.workloads.layers import EwopLayer, MatMulLayer
from repro.workloads.network import Network


def _req(i: int, t: float) -> InferenceRequest:
    return InferenceRequest(request_id=i, model="m", arrival_s=t)


class TestBatchPolicy:
    def test_invalid_max_batch(self):
        with pytest.raises(ServingError):
            BatchPolicy(max_batch=0)

    @pytest.mark.parametrize("max_batch", [2.5, math.nan, 8.0, True, "8"])
    def test_non_integer_max_batch_rejected(self, max_batch):
        # 2.5 used to form batches of 3; NaN failed only mid-run.
        with pytest.raises(ServingError, match="max_batch must be an integer"):
            BatchPolicy(max_batch=max_batch)

    def test_numpy_integer_max_batch_accepted(self):
        assert BatchPolicy(max_batch=np.int64(4)).max_batch == 4

    def test_invalid_wait(self):
        with pytest.raises(ServingError):
            BatchPolicy(max_wait_s=-1.0)

    def test_non_finite_wait_rejected(self):
        """A NaN wait used to pass the < 0 check (NaN compares false)
        and stall every formation deadline downstream."""
        import math
        with pytest.raises(ServingError):
            BatchPolicy(max_wait_s=math.nan)
        with pytest.raises(ServingError):
            BatchPolicy(max_wait_s=math.inf)


class TestBatcher:
    def test_not_ready_when_empty(self):
        b = Batcher(BatchPolicy(max_batch=4, max_wait_s=0.01))
        assert not b.ready(100.0)

    def test_ready_at_max_batch(self):
        b = Batcher(BatchPolicy(max_batch=2, max_wait_s=10.0))
        b.push(_req(0, 0.0))
        assert not b.ready(0.0)
        b.push(_req(1, 0.0))
        assert b.ready(0.0)

    def test_ready_at_deadline(self):
        b = Batcher(BatchPolicy(max_batch=8, max_wait_s=0.01))
        b.push(_req(0, 1.0))
        assert not b.ready(1.009)
        assert b.ready(1.01)
        assert b.ready(b.next_deadline())  # exact instant, no float gap

    def test_degraded_waives_wait(self):
        b = Batcher(BatchPolicy(max_batch=8, max_wait_s=10.0))
        b.push(_req(0, 0.0))
        assert not b.ready(0.0)
        assert b.ready(0.0, degraded=True)

    def test_pop_fifo_capped_at_max_batch(self):
        b = Batcher(BatchPolicy(max_batch=3, max_wait_s=0.01))
        for i in range(5):
            b.push(_req(i, 0.0))
        batch = b.pop(1.0)
        assert [r.request_id for r in batch.requests] == [0, 1, 2]
        assert batch.size == 3
        assert b.depth == 2

    def test_pop_empty_raises(self):
        b = Batcher(BatchPolicy())
        with pytest.raises(ServingError):
            b.pop(0.0)
        with pytest.raises(ServingError):
            b.next_deadline()


class TestBatcherExpiry:
    def _req(self, i, t, deadline):
        return InferenceRequest(request_id=i, model="m", arrival_s=t,
                                deadline_s=deadline)

    def test_expire_removes_only_expired(self):
        b = Batcher(BatchPolicy(max_batch=8, max_wait_s=10.0))
        b.push(self._req(0, 0.0, 0.5))
        b.push(self._req(1, 0.0, 2.0))
        expired = b.expire(1.0)
        assert [r.request_id for r in expired] == [0]
        assert b.depth == 1

    def test_next_expiry_is_earliest_deadline(self):
        import math
        b = Batcher(BatchPolicy(max_batch=8, max_wait_s=10.0))
        assert math.isinf(b.next_expiry_s())
        b.push(self._req(0, 0.0, 2.0))
        b.push(self._req(1, 0.0, 0.5))
        assert b.next_expiry_s() == pytest.approx(0.5)

    def test_undeadlined_requests_never_expire(self):
        import math
        b = Batcher(BatchPolicy(max_batch=8, max_wait_s=10.0))
        b.push(_req(0, 0.0))
        assert math.isinf(b.next_expiry_s())
        assert b.expire(1e9) == []
        assert b.depth == 1

    def test_pop_all_drains(self):
        b = Batcher(BatchPolicy(max_batch=2, max_wait_s=10.0))
        for i in range(5):
            b.push(_req(i, 0.0))
        drained = b.pop_all()
        assert [r.request_id for r in drained] == [0, 1, 2, 3, 4]
        assert b.depth == 0
        assert len(b) == 0


def _mm_net() -> Network:
    return Network(
        name="mmnet", application="test",
        layers=(
            MatMulLayer("fc1", in_features=64, out_features=32),
            MatMulLayer("fc2", in_features=32, out_features=8),
        ),
    )


class TestBatchServiceModel:
    def test_batching_amortizes_mm_weights(self, tiny_config):
        """Per-request service time falls with batch (the §I trade)."""
        model = BatchServiceModel(_mm_net(), tiny_config)
        per_req_1 = model.service_s(1)
        per_req_8 = model.service_s(8) / 8
        assert per_req_8 < per_req_1

    def test_batch_latency_monotone(self, tiny_config):
        model = BatchServiceModel(_mm_net(), tiny_config)
        costs = [model.service_s(b) for b in (1, 2, 4, 8)]
        assert costs == sorted(costs)

    def test_costs_memoized_through_schedule_cache(self, tiny_config):
        cache = ScheduleCache(tiny_config)
        model = BatchServiceModel(_mm_net(), tiny_config, cache=cache)
        model.service_s(4)
        misses = cache.misses
        model.service_s(4)
        assert cache.misses == misses  # fully memoized per batch size

    def test_invalid_batch_size(self, tiny_config):
        model = BatchServiceModel(_mm_net(), tiny_config)
        with pytest.raises(ServingError):
            model.cost(0)

    def test_ewop_only_network_rejected(self, tiny_config):
        net = Network(
            name="ew", application="test",
            layers=(EwopLayer("relu", op="relu", n_elements=16),),
        )
        with pytest.raises(ServingError):
            BatchServiceModel(net, tiny_config)

    def test_transfer_time_scales_with_batch(self, tiny_config):
        model = BatchServiceModel(_mm_net(), tiny_config)
        assert model.cost(4).transfer_s == pytest.approx(
            4 * model.cost(1).transfer_s
        )

    def test_requests_keep_arrival_order_identity(self):
        reqs = make_requests([0.0, 0.1], "m")
        b = Batcher(BatchPolicy(max_batch=2, max_wait_s=0.01))
        for r in reqs:
            b.push(r)
        batch = b.pop(0.2)
        assert batch.requests[0] is reqs[0]
