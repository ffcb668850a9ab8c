"""Event-driven serving loop: correctness, determinism, overload."""

import pytest

from repro.compiler.cache import CacheStats
from repro.errors import ServingError
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy, BatchServiceModel
from repro.serving.engine import ServingEngine
from repro.serving.request import (
    InferenceRequest,
    make_requests,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.scheduler import ReplicaService
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network


class StubService:
    """Fixed 1 ms per batch regardless of size, N replicas."""

    def __init__(self, n_replicas: int = 1, service_s: float = 1e-3):
        self.n_replicas = n_replicas
        self._service_s = service_s

    def latency_s(self, batch_size: int) -> float:
        return self._service_s

    def occupancy_s(self, batch_size: int) -> float:
        return self._service_s

    def cache_stats(self) -> CacheStats:
        return CacheStats(hits=0, misses=0, evictions=0, size=0,
                          max_entries=None)

    def replica_names(self) -> list[str]:
        return [f"stub{i}" for i in range(self.n_replicas)]


def _requests(times, model="stub"):
    return make_requests(times, model)


class TestEngineSemantics:
    def test_all_requests_complete(self):
        engine = ServingEngine(StubService(), BatchPolicy(max_batch=4,
                                                          max_wait_s=1e-3))
        report = engine.run(_requests(uniform_arrivals(100.0, 20)))
        assert report.n_completed == 20
        assert report.n_rejected == 0
        ids = sorted(r.request_id for r in report.completed)
        assert ids == list(range(20))

    def test_latency_decomposition(self):
        """latency == queue wait + service, exactly."""
        engine = ServingEngine(
            StubService(service_s=2e-3),
            BatchPolicy(max_batch=1, max_wait_s=0.0),
        )
        report = engine.run(_requests([0.0, 0.1]))
        for req in report.completed:
            assert req.latency_s == pytest.approx(req.queue_wait_s + 2e-3)
            # Uncontended batch=1, no wait: service time only.
            assert req.queue_wait_s == pytest.approx(0.0)

    def test_burst_batches_together(self):
        """Requests landing at one instant form one full batch."""
        engine = ServingEngine(StubService(),
                               BatchPolicy(max_batch=4, max_wait_s=10.0))
        report = engine.run(_requests([1.0, 1.0, 1.0, 1.0]))
        assert {r.batch_size for r in report.completed} == {4}
        assert {r.dispatch_s for r in report.completed} == {1.0}

    def test_max_wait_bounds_formation(self):
        """A lone request launches at its deadline, not at max_batch."""
        engine = ServingEngine(StubService(),
                               BatchPolicy(max_batch=8, max_wait_s=5e-3))
        report = engine.run(_requests([1.0]))
        (req,) = report.completed
        assert req.dispatch_s == pytest.approx(1.005)
        assert req.batch_size == 1

    def test_queue_overflow_rejects(self):
        engine = ServingEngine(
            StubService(service_s=1.0),  # effectively stuck replica
            BatchPolicy(max_batch=1, max_wait_s=0.0),
            AdmissionPolicy(capacity=2),
        )
        report = engine.run(_requests([0.0, 0.0, 0.0, 0.0, 0.0]))
        # Same-instant arrivals are admitted before dispatch: two fill
        # the queue, three bounce off the capacity-2 bound.
        assert report.n_rejected == 3
        assert report.n_completed == 2

    def test_degradation_under_load(self):
        """Deep queues launch small batches instead of waiting."""
        engine = ServingEngine(
            StubService(service_s=1e-3),
            BatchPolicy(max_batch=64, max_wait_s=10.0),
            AdmissionPolicy(capacity=8, degrade_watermark=0.5),
        )
        report = engine.run(_requests(uniform_arrivals(2000.0, 30)))
        assert report.degraded_dispatches > 0
        # Without degradation nothing launches before the 10 s deadline;
        # with it everything except the tail stragglers (depth below the
        # watermark, which legitimately wait out max_wait) drains fast.
        finished = sorted(r.complete_s for r in report.completed)
        assert finished[-5] < 1.0

    def test_replicas_share_load(self):
        engine = ServingEngine(
            StubService(n_replicas=2, service_s=10e-3),
            BatchPolicy(max_batch=1, max_wait_s=0.0),
        )
        report = engine.run(_requests(uniform_arrivals(150.0, 40)))
        used = {r.replica for r in report.completed}
        assert used == {"stub0", "stub1"}

    def test_unsorted_requests_rejected(self):
        engine = ServingEngine(StubService())
        reqs = [
            InferenceRequest(request_id=0, model="m", arrival_s=1.0),
            InferenceRequest(request_id=1, model="m", arrival_s=0.5),
        ]
        with pytest.raises(ServingError):
            engine.run(reqs)

    def test_empty_run_rejected(self):
        with pytest.raises(ServingError):
            ServingEngine(StubService()).run([])

    def test_served_list_refused_on_reuse(self):
        engine = ServingEngine(
            StubService(n_replicas=2),
            BatchPolicy(max_batch=4, max_wait_s=1e-3),
            AdmissionPolicy(capacity=8),
        )
        times = poisson_arrivals(12000.0, 120, seed=5)

        def outcome(report):
            return (
                [(r.request_id, r.dispatch_s, r.complete_s, r.replica,
                  r.attempts) for r in report.completed],
                [r.request_id for r in report.rejected],
                report.describe(),
            )

        requests = _requests(times)
        first = engine.run(requests)
        seen = outcome(first)
        assert seen[1]  # the capacity bound rejected some arrivals
        with pytest.raises(ServingError, match="request 0 "):
            engine.run(requests)
        # The refused rerun wrote nothing onto the first run's requests,
        # and a fresh list serves exactly as the first one did.
        assert outcome(first) == seen
        assert outcome(engine.run(_requests(times))) == seen

    @pytest.mark.parametrize("state", ["attempts", "drop_reason",
                                       "reject_reason"])
    def test_request_with_run_state_refused(self, state):
        requests = _requests([0.0, 1.0])
        setattr(requests[1], state, 1 if state == "attempts" else "x")
        with pytest.raises(ServingError, match="request 1 "):
            ServingEngine(StubService()).run(requests)

    def test_invalid_slo(self):
        for slo_s in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ServingError, match="slo_s"):
                ServingEngine(StubService(), slo_s=slo_s)


class TestEngineOnRealModel:
    @pytest.fixture
    def service(self, tiny_config):
        net = Network(
            name="mmnet", application="test",
            layers=(
                MatMulLayer("fc1", in_features=64, out_features=32),
                MatMulLayer("fc2", in_features=32, out_features=8),
            ),
        )
        return ReplicaService(BatchServiceModel(net, tiny_config), 2)

    def test_bit_deterministic_given_seed(self, service):
        engine = ServingEngine(service, BatchPolicy(max_batch=4,
                                                    max_wait_s=1e-3))

        def run():
            reqs = _requests(
                poisson_arrivals(5000.0, 100, seed=11), "mmnet"
            )
            return engine.run(reqs)

        a, b = run(), run()
        assert a.describe() == b.describe()
        assert a.latencies_s == b.latencies_s
        assert a.utilization == b.utilization

    def test_report_totals_consistent(self, service):
        engine = ServingEngine(service, BatchPolicy(max_batch=4,
                                                    max_wait_s=1e-3))
        report = engine.run(
            _requests(poisson_arrivals(2000.0, 60, seed=5), "mmnet")
        )
        assert report.n_offered == 60
        assert report.throughput_rps > 0
        assert report.makespan_s > 0
        assert report.cache_stats is not None
        assert report.cache_stats.misses > 0
        assert 0 <= report.mean_utilization <= 1.0
