"""Pipeline and replica service models, and their batch placement."""

import pytest

from repro.cluster.router import ClusterRouter
from repro.compiler import cache as cache_module
from repro.cluster.topology import build_fleet
from repro.errors import FTDLError, ServingError
from repro.serving.batcher import Batch, BatchServiceModel
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.workloads.layers import EwopLayer, MatMulLayer
from repro.workloads.network import Network


def _net() -> Network:
    return Network(
        name="n", application="test",
        layers=(
            MatMulLayer("fc1", in_features=64, out_features=32),
            MatMulLayer("fc2", in_features=32, out_features=8),
        ),
    )


def _batch(size: int, t: float = 0.0) -> Batch:
    return Batch(
        requests=tuple(
            InferenceRequest(request_id=i, model="n", arrival_s=t)
            for i in range(size)
        ),
        formed_s=t,
    )


class TestReplicaService:
    def test_occupancy_equals_latency(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        assert svc.occupancy_s(4) == svc.latency_s(4)
        assert svc.replica_names() == ["overlay0", "overlay1"]

    def test_invalid_replica_count(self, tiny_config):
        with pytest.raises(ServingError):
            ReplicaService(BatchServiceModel(_net(), tiny_config), 0)


class TestPipelineService:
    def test_latency_exceeds_occupancy(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        if svc.n_devices > 1:
            assert svc.latency_s(2) > svc.occupancy_s(2)
        else:
            assert svc.latency_s(2) == svc.occupancy_s(2)

    def test_occupancy_is_bottleneck_stage(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        stage_times = [s.service_s(2) for s in svc._stages]
        assert svc.occupancy_s(2) == max(stage_times)
        assert svc.latency_s(2) == pytest.approx(sum(stage_times))

    def test_ewop_only_network_rejected(self, tiny_config):
        net = Network(
            name="ew", application="test",
            layers=(EwopLayer("relu", op="relu", n_elements=16),),
        )
        # plan_deployment rejects it first with PartitionError; either
        # way it is a typed FTDLError, not a crash.
        with pytest.raises(FTDLError):
            PipelineService(net, tiny_config, n_devices=2)

    def test_cache_stats_aggregate(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        svc.latency_s(1)
        stats = svc.cache_stats()
        assert stats.misses >= svc.n_devices  # every stage compiled

    def test_degrade_slowdown_searches_each_stage_once(
        self, tiny_config, monkeypatch
    ):
        """A repeated stuck-TPE mask reuses every stage's degraded model:
        the second call runs no schedule search."""
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        svc.latency_s(2)  # compile the healthy stages up front
        searched = []

        class CountingSearch(cache_module.ScheduleSearch):
            def run(self):
                searched.append(self.layer.name)
                return super().run()

        monkeypatch.setattr(cache_module, "ScheduleSearch", CountingSearch)
        slowdown = svc.degrade_slowdown([(0, 0, 0)], 2)
        assert slowdown >= 1.0
        assert sorted(searched) == ["fc1", "fc2"]
        assert svc.degrade_slowdown([(0, 0, 0)], 2) == slowdown
        assert sorted(searched) == ["fc1", "fc2"]


def _router(svc: ReplicaService) -> ClusterRouter:
    """The serving loop's placement for ``svc``: one rack, one board
    per replica."""
    names = svc.replica_names()
    return ClusterRouter(build_fleet(1, len(names), board_names=names))


def _place(router, svc, board, batch, now_s):
    return router.dispatch(
        board, batch, now_s,
        occupancy_s=svc.occupancy_s(batch.size),
        latency_s=svc.latency_s(batch.size),
    )


class TestRouterPlacement:
    def test_earliest_free_placement(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        router = _router(svc)
        b0 = router.free_board(0.0)
        d0 = _place(router, svc, b0, _batch(2), 0.0)
        b1 = router.free_board(0.0)
        assert b1 is not b0
        _place(router, svc, b1, _batch(2), 0.0)
        assert router.free_board(0.0) is None
        assert router.next_free_s() == pytest.approx(d0.complete_s)

    def test_dispatch_busy_replica_raises(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 1)
        router = _router(svc)
        board = router.free_board(0.0)
        _place(router, svc, board, _batch(1), 0.0)
        with pytest.raises(ServingError):
            _place(router, svc, board, _batch(1), 0.0)

    def test_utilization_accounting(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        router = _router(svc)
        board = router.free_board(0.0)
        d = _place(router, svc, board, _batch(1), 0.0)
        util = router.utilization(makespan_s=2 * d.complete_s)
        assert util["overlay0"] == pytest.approx(0.5)
        assert util["overlay1"] == 0.0
