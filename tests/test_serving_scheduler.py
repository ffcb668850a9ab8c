"""Pipeline, replica and fleet service models, and their batch placement."""

import pytest

from repro.cluster.router import ClusterRouter
from repro.cluster.service import FleetService
from repro.compiler import cache as cache_module
from repro.compiler.cache import ScheduleCache
from repro.compiler.persist import PersistentScheduleStore
from repro.cluster.topology import build_fleet
from repro.errors import FTDLError, ServingError
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.overlay.config import OverlayConfig
from repro.serving.batcher import Batch, BatchServiceModel
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.workloads.layers import EwopLayer, MatMulLayer
from repro.workloads.models import build_smallcnn
from repro.workloads.network import Network
from repro.workloads.registry import build_workload


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


SERVICES = {
    "replica": lambda config: ReplicaService(
        BatchServiceModel(_net(), config), n_replicas=2),
    "pipeline": lambda config: PipelineService(_net(), config, n_devices=2),
    "fleet": lambda config: FleetService(
        BatchServiceModel(_net(), config), build_fleet(2, 2)),
}


@pytest.mark.parametrize("shape", sorted(SERVICES))
def test_service_contract(shape, tiny_config, monkeypatch):
    """Every deployment shape honours the one cost contract, and a
    repeated stuck-TPE mask reuses every stage's degraded model: the
    second call runs no schedule search."""
    svc = SERVICES[shape](tiny_config)
    for batch in (1, 2, 4):
        latency = svc.latency_s(batch)
        assert 0 < svc.occupancy_s(batch) <= latency
        assert sum(svc.latency_split(batch)) == pytest.approx(latency)
    assert len(svc.replica_names()) == svc.n_replicas
    assert len(set(svc.replica_names())) == svc.n_replicas

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


class TestReplicaService:
    def test_occupancy_equals_latency(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        assert svc.occupancy_s(4) == svc.latency_s(4)
        assert svc.replica_names() == ["overlay0", "overlay1"]

    def test_one_stage_is_its_model(self, tiny_config):
        """A replica is a one-stage pipeline: its costs and cache
        counters are its model's, bit for bit, bound included."""
        model = BatchServiceModel(
            _net(), tiny_config,
            cache=ScheduleCache(tiny_config, max_entries=4),
        )
        svc = ReplicaService(model, 2)
        for batch in (1, 3):
            assert svc.latency_s(batch) == model.service_s(batch)
            assert svc.occupancy_s(batch) == model.service_s(batch)
            cost = model.cost(batch)
            assert svc.latency_split(batch) == (
                cost.compute_s, cost.transfer_s)
        assert svc.cache_stats() == model.cache.stats()
        assert svc.cache_stats().max_entries == 4

    def test_invalid_replica_count(self, tiny_config):
        with pytest.raises(ServingError):
            ReplicaService(BatchServiceModel(_net(), tiny_config), 0)

    @pytest.mark.parametrize("n_replicas", [2.5, True])
    def test_non_integer_replica_count(self, tiny_config, n_replicas):
        """Only an integer >= 1 counts: 2.5 would otherwise fail late in
        ``range`` and True would pass as one replica."""
        with pytest.raises(ServingError, match="n_replicas"):
            ReplicaService(BatchServiceModel(_net(), tiny_config),
                           n_replicas)

    def test_pipeline_invalid_replica_count(self, tiny_config):
        with pytest.raises(ServingError):
            PipelineService(_net(), tiny_config, n_devices=2,
                            n_replicas=2.5)


class TestFleetService:
    @pytest.mark.parametrize(
        "cold_start_s", [float("nan"), float("inf"), -1e-3])
    def test_bad_cold_start_rejected(self, tiny_config, cold_start_s):
        with pytest.raises(ServingError, match="cold_start_s"):
            FleetService(BatchServiceModel(_net(), tiny_config),
                         build_fleet(1, 2), cold_start_s=cold_start_s)


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

    def test_shared_store_counted_once(self, tmp_path):
        """The stages share one persistent store, and each stage's cache
        counts only its own disk traffic: summed, every miss is one disk
        lookup and every search is one write."""
        svc = PipelineService(
            build_workload("Sentimental-seqLSTM"), OverlayConfig(3, 2, 2),
            n_devices=3, store=PersistentScheduleStore(tmp_path),
        )
        svc.latency_s(1)
        stats = svc.cache_stats()
        assert stats.persistent_hits + stats.persistent_misses == stats.misses
        assert stats.persistent_stores == stats.compiles \
            == len(list(tmp_path.glob("*.json")))

    def test_degraded_stage_keeps_stage_objective(self):
        """A degraded stage compiles with its healthy stage's objective
        (``balance`` here), so the slowdown ratio compares like with
        like."""
        config = OverlayConfig(d1=3, d2=2, d3=2)
        svc = PipelineService(build_smallcnn(), config, n_devices=1)
        (stage,) = svc._stages
        assert stage.cache.objective == "balance"
        degraded = BatchServiceModel(
            stage.network,
            largest_healthy_subgrid(
                stage.config, FaultMask.from_coords([(0, 0, 0)])),
            objective="balance",
        )
        slowdown = svc.degrade_slowdown([(0, 0, 0)], 4)
        assert slowdown == degraded.service_s(4) / stage.service_s(4)
        assert slowdown == pytest.approx(1.52013, rel=1e-5)


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
