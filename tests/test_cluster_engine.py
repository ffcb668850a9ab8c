"""Cluster engine: ServingEngine equivalence, healing, tenancy, scaling."""

import pytest

import dataclasses

from repro.cluster import (
    AutoscalePolicy,
    Board,
    ClusterEngine,
    ClusterRouter,
    CorrelatedDramFault,
    FleetService,
    FleetTopology,
    NetworkHeal,
    NetworkPartition,
    Rack,
    RackPowerLoss,
    RackPowerRestore,
    TenantPolicy,
    build_fleet,
    weight_load_s,
)
from repro.cluster.report import tenant_ledger
from repro.errors import FaultError, ServingError
from repro.faults import (
    DramBitFlip,
    FaultSchedule,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
    generate_fault_schedule,
)
from repro.overlay.config import OverlayConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy, BatchServiceModel
from repro.serving.engine import ServingEngine
from repro.serving.request import (
    REJECT_CAPACITY,
    REJECT_QUOTA,
    RetryPolicy,
    make_requests,
    poisson_arrivals,
)
from repro.serving.scheduler import ReplicaService
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network

CONFIG = OverlayConfig(
    d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
    s_psumbuf_words=512, clk_h_mhz=650.0,
)
#: Heavy enough that faults land while batches are in flight — the
#: equivalence below is only meaningful with live retries and SDC.
NETWORK = Network(
    name="mm", application="test",
    layers=(MatMulLayer(name="fc", in_features=192, out_features=160,
                        batch=2),),
)


#: ~2 ms per batch of 8 — slow enough that point events reliably catch
#: batches in flight and queues actually build under load.
HEAVY_NETWORK = Network(
    name="mm", application="test",
    layers=(MatMulLayer(name="fc", in_features=768, out_features=640,
                        batch=2),),
)


_MODELS: dict[str, BatchServiceModel] = {}


def model() -> BatchServiceModel:
    """Shared instance: batch-size compilations are cached across tests
    (service times are deterministic, so sharing cannot leak state)."""
    return _MODELS.setdefault("mm", BatchServiceModel(NETWORK, CONFIG))


def heavy_model() -> BatchServiceModel:
    return _MODELS.setdefault(
        "heavy", BatchServiceModel(HEAVY_NETWORK, CONFIG))


def arrivals(n=400, rate=9000.0, seed=1, deadline_s=20e-3):
    return make_requests(
        poisson_arrivals(rate, n, seed=seed), "mm", deadline_s=deadline_s,
    )


def board_schedule(names, seed=5, duration_s=0.08):
    return generate_fault_schedule(
        seed=seed, duration_s=duration_s, replicas=list(names),
        grid=CONFIG, crash_rate_hz=60.0, mean_repair_s=0.010,
        bitflip_rate_hz=200.0, correctable_fraction=0.3,
        tpe_fault_rate_hz=100.0, stuck_fraction=0.2,
        link_fault_rate_hz=30.0, slowdown_rate_hz=30.0,
    )


def snapshot(report):
    """Everything observable about a run, for bit-equality checks."""
    core = getattr(report, "core", report)
    return {
        "completed": [
            (r.request_id, r.complete_s, r.replica, r.attempts,
             r.batch_size)
            for r in core.completed
        ],
        "dropped": [
            (r.request_id, r.drop_reason, r.attempts) for r in core.dropped
        ],
        "n_rejected": core.n_rejected,
        "n_retries": core.n_retries,
        "makespan_s": core.makespan_s,
        "utilization": core.utilization,
        "queue_avg": core.queue_depth_time_avg,
        "queue_max": core.queue_depth_max,
        "degraded": core.degraded_dispatches,
        "fault_counts": core.fault_counts,
        "integrity_counts": core.integrity_counts,
        "health": (
            (core.health.crashes, core.health.recoveries,
             core.health.mttr_s, core.health.downtime_s)
            if core.health else None
        ),
    }


class TestServingEngineEquivalence:
    """A degenerate cluster (one rack, one tenant, no autoscaler, no
    hedging, board names = replica names, no domain events) must
    reproduce the single-board ServingEngine bit for bit — this is the
    contract that lets chaos and integrity compose with the fleet
    unchanged."""

    N_BOARDS = 2

    def _run_pair(self, integrity):
        names = [f"overlay{i}" for i in range(self.N_BOARDS)]
        schedule = board_schedule(names)
        kwargs = dict(
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            admission_policy=AdmissionPolicy(capacity=64),
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
            integrity_policy=integrity,
        )
        load = dict(n=800, rate=12000.0, deadline_s=5e-3)
        single = ServingEngine(
            ReplicaService(model(), n_replicas=self.N_BOARDS), **kwargs
        ).run(arrivals(**load))
        fleet = build_fleet(1, self.N_BOARDS, board_names=names)
        cluster = ClusterEngine(
            FleetService(model(), fleet), hedge_retries=False, **kwargs
        ).run(arrivals(**load))
        return single, cluster

    @pytest.mark.parametrize(
        "integrity", ["off", "detect", "detect-reexecute", "detect-correct"]
    )
    def test_bit_identical(self, integrity):
        single, cluster = self._run_pair(integrity)
        assert snapshot(single) == snapshot(cluster)

    def test_equivalence_run_is_nontrivial(self):
        # Guard against the comparison passing vacuously: the shared
        # fault schedule must actually cause retries, drops and SDC.
        single, cluster = self._run_pair("detect-correct")
        assert single.n_retries > 0
        assert single.n_dropped > 0
        assert single.integrity_counts.get("sdc_detected", 0) > 0
        assert cluster.conserved

    def test_cluster_report_wraps_core(self):
        _, cluster = self._run_pair("off")
        assert cluster.n_racks == 1
        assert cluster.n_boards == self.N_BOARDS
        assert cluster.availability == cluster.core.availability
        assert set(cluster.per_tenant) == {"default"}


class TestDomainFaults:
    def _fleet(self, n_racks=2, per_rack=2):
        topo = build_fleet(n_racks, per_rack)
        return topo, FleetService(model(), topo)

    def _run(self, service, events, requests=None, **kwargs):
        kwargs.setdefault(
            "batch_policy", BatchPolicy(max_batch=8, max_wait_s=0.5e-3))
        kwargs.setdefault(
            "retry_policy", RetryPolicy(max_attempts=5, backoff_base_s=0.2e-3))
        return ClusterEngine(
            service, fault_schedule=FaultSchedule.from_events(events),
            **kwargs,
        ).run(requests if requests is not None else arrivals())

    def test_rack_loss_drains_members_and_conserves(self):
        topo, service = self._fleet()
        report = self._run(service, [
            RackPowerLoss(5e-3, "rack0"),
            RackPowerRestore(20e-3, "rack0"),
        ])
        assert report.drains == 2          # both members of rack0
        assert report.readmits == 2
        assert report.cold_starts == 2     # power restore reloads weights
        assert report.conserved
        assert report.n_completed + report.n_dropped \
            + report.n_rejected == report.n_offered

    def test_rack_loss_mid_flight_retries_in_flight_work(self):
        topo, service = self._fleet(1, 2)
        requests = arrivals(n=200, rate=12000.0)
        report = self._run(service, [
            RackPowerLoss(requests[40].arrival_s, "rack0"),
            RackPowerRestore(requests[40].arrival_s + 2e-3, "rack0"),
        ], requests=requests)
        assert report.core.n_retries > 0
        assert report.conserved
        assert report.availability > 0.5

    def test_power_restore_pays_cold_start_partition_does_not(self):
        topo, service = self._fleet(1, 2)
        assert service.cold_start_s == pytest.approx(
            weight_load_s(model()))
        assert service.cold_start_s > 0
        lossy = self._run(service, [
            RackPowerLoss(5e-3, "rack0"),
            RackPowerRestore(10e-3, "rack0"),
        ])
        topo2, service2 = self._fleet(1, 2)
        parted = self._run(service2, [
            NetworkPartition(5e-3, "rack0"),
            NetworkHeal(10e-3, "rack0"),
        ])
        assert lossy.cold_starts == 2
        assert parted.cold_starts == 0
        assert parted.drains == 2 and parted.readmits == 2
        assert parted.conserved

    def test_losing_every_rack_strands_then_recovers_nothing(self):
        # No restore ever: queued + backing-off work is strand-dropped,
        # never leaked.
        topo, service = self._fleet(2, 2)
        report = self._run(service, [
            RackPowerLoss(3e-3, "rack0"),
            RackPowerLoss(3e-3, "rack1"),
        ])
        assert report.conserved
        assert report.n_dropped > 0
        stats = report.per_tenant["default"]
        assert stats.n_offered == stats.n_completed \
            + stats.n_rejected + stats.n_dropped

    def test_correlated_dram_aborts_without_integrity(self):
        topo, service = self._fleet(1, 2)
        report = self._run(service, [
            CorrelatedDramFault(4e-3, "rack0", n_flips=6, seed=9),
        ])
        assert report.core.fault_counts.get("dram_correlated") == 1
        assert report.conserved

    def test_correlated_dram_detected_by_integrity(self):
        topo = build_fleet(1, 2)
        service = FleetService(heavy_model(), topo)
        report = self._run(
            service,
            [CorrelatedDramFault(4e-3, "rack0", n_flips=6, seed=9)],
            integrity_policy="detect",
            requests=arrivals(n=300, rate=12000.0),
        )
        assert report.core.integrity_counts.get("sdc_detected", 0) > 0
        assert report.conserved

    def test_health_rolls_up_to_rack_domains(self):
        topo, service = self._fleet(2, 2)
        report = self._run(service, [
            RackPowerLoss(5e-3, "rack0"),
            RackPowerRestore(9e-3, "rack0"),
        ])
        health = report.core.health
        assert health is not None
        assert set(health.per_domain) == {"rack0", "rack1"}
        rack0 = health.per_domain["rack0"]
        assert rack0.n_members == 2
        assert rack0.crashes == 2 and rack0.recoveries == 2
        assert rack0.mttr_s == pytest.approx(4e-3)
        assert rack0.availability < 1.0
        assert health.per_domain["rack1"].availability == 1.0
        assert "domains" in health.describe()

    def test_mixed_domain_and_board_schedule(self):
        topo, service = self._fleet(2, 2)
        merged = FaultSchedule.merge(
            FaultSchedule.from_events([
                RackPowerLoss(5e-3, "rack0"),
                RackPowerRestore(12e-3, "rack0"),
            ]),
            FaultSchedule.from_events([
                ReplicaCrash(6e-3, "rack1/b0"),
                ReplicaRecovery(9e-3, "rack1/b0"),
            ]),
        )
        report = ClusterEngine(
            service,
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.2e-3),
            fault_schedule=merged,
        ).run(arrivals())
        assert report.core.fault_counts["rack_power_loss"] == 1
        assert report.core.fault_counts["crash"] == 1
        assert report.conserved


class TestHedging:
    def _run(self, hedge):
        topo = build_fleet(1, 3)
        service = FleetService(heavy_model(), topo)
        events = [
            ReplicaCrash(4e-3, "rack0/b0"),
            ReplicaRecovery(30e-3, "rack0/b0"),
        ]
        return ClusterEngine(
            service,
            batch_policy=BatchPolicy(max_batch=4, max_wait_s=0.2e-3),
            retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.1e-3),
            fault_schedule=FaultSchedule.from_events(events),
            hedge_retries=hedge,
        ).run(arrivals(n=300, rate=15000.0))

    def test_retries_steer_off_the_failed_board(self):
        report = self._run(hedge=True)
        assert report.core.n_retries > 0
        assert report.hedged_dispatches > 0
        assert report.conserved

    def test_hedging_can_be_disabled(self):
        report = self._run(hedge=False)
        assert report.hedged_dispatches == 0
        assert report.conserved


class TestTenancy:
    def _requests(self, n=300, rate=9000.0):
        requests = arrivals(n=n, rate=rate)
        for i, request in enumerate(requests):
            request.tenant = ("alpha", "beta", "beta")[i % 3]
        return requests

    def test_per_tenant_accounting(self):
        topo = build_fleet(1, 2)
        report = ClusterEngine(
            FleetService(model(), topo),
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            tenant_policy=TenantPolicy(weights={"alpha": 2.0, "beta": 1.0}),
        ).run(self._requests())
        assert set(report.per_tenant) == {"alpha", "beta"}
        assert report.per_tenant["alpha"].n_offered == 100
        assert report.per_tenant["beta"].n_offered == 200
        assert report.conserved
        total = sum(t.n_offered for t in report.per_tenant.values())
        assert total == report.n_offered

    def test_quota_rejects_and_accounts(self):
        topo = build_fleet(1, 1)
        report = ClusterEngine(
            FleetService(heavy_model(), topo),
            batch_policy=BatchPolicy(max_batch=2, max_wait_s=0.5e-3),
            admission_policy=AdmissionPolicy(capacity=256),
            tenant_policy=TenantPolicy(quotas={"beta": 2}),
        ).run(self._requests(rate=20000.0))
        beta = report.per_tenant["beta"]
        assert beta.n_quota_rejected > 0
        assert beta.n_rejected >= beta.n_quota_rejected
        assert beta.conserved
        # Quota only throttles beta; alpha rides the global bound.
        assert report.per_tenant["alpha"].n_quota_rejected == 0
        assert report.conserved
        assert "quota-rejected" in report.describe()

    def test_quota_rejections_count_into_core_rejected(self):
        topo = build_fleet(1, 1)
        report = ClusterEngine(
            FleetService(model(), topo),
            batch_policy=BatchPolicy(max_batch=2, max_wait_s=0.5e-3),
            tenant_policy=TenantPolicy(quotas={"beta": 1}),
        ).run(self._requests(rate=20000.0))
        assert report.n_rejected == sum(
            t.n_rejected for t in report.per_tenant.values()
        )

    def test_rejections_carry_their_reason(self):
        """A quota refusal and a capacity refusal each land in
        ``rejected`` stamped with their own reason."""
        offered = self._requests(rate=20000.0)
        report = ClusterEngine(
            FleetService(heavy_model(), build_fleet(1, 1)),
            batch_policy=BatchPolicy(max_batch=2, max_wait_s=0.5e-3),
            admission_policy=AdmissionPolicy(capacity=4),
            tenant_policy=TenantPolicy(quotas={"beta": 2}),
        ).run(offered)
        reasons = {(r.tenant, r.reject_reason) for r in report.core.rejected}
        assert ("beta", REJECT_QUOTA) in reasons
        assert ("alpha", REJECT_CAPACITY) in reasons
        assert ("alpha", REJECT_QUOTA) not in reasons
        assert report.per_tenant["beta"].n_quota_rejected == sum(
            r.reject_reason == REJECT_QUOTA for r in report.core.rejected
        )
        ended = report.core.completed + report.core.dropped
        assert all(r.reject_reason is None for r in ended)


class TestLedger:
    def _run(self):
        offered = arrivals(n=120, rate=20000.0, deadline_s=2e-3)
        report = ClusterEngine(
            FleetService(heavy_model(), build_fleet(1, 1)),
            batch_policy=BatchPolicy(max_batch=2, max_wait_s=0.5e-3),
            admission_policy=AdmissionPolicy(capacity=16),
        ).run(offered)
        core = report.core
        assert core.completed and core.dropped and core.rejected
        return offered, core

    def test_ledger_matches_report(self):
        offered, core = self._run()
        (stats,) = tenant_ledger(offered, core).values()
        assert (stats.n_offered, stats.n_completed, stats.n_dropped,
                stats.n_rejected) == (len(offered), core.n_completed,
                                      core.n_dropped, core.n_rejected)

    @pytest.mark.parametrize("break_it", [
        (lambda o, c: (o, dataclasses.replace(
            c, dropped=c.dropped + c.completed[:1]))),
        (lambda o, c: (o, dataclasses.replace(
            c, rejected=c.rejected[1:]))),
        (lambda o, c: (o[1:], c)),
        (lambda o, c: (o + o[:1], dataclasses.replace(
            c, completed=c.completed + tuple(o[:1])))),
    ], ids=["counted_twice", "lost", "not_offered", "offered_twice"])
    def test_broken_outcomes_raise(self, break_it):
        offered, core = break_it(*self._run())
        with pytest.raises(ServingError, match="do not partition"):
            tenant_ledger(offered, core)


class TestAutoscaling:
    def test_scales_up_under_load_and_reports(self):
        topo = build_fleet(1, 4)
        report = ClusterEngine(
            FleetService(model(), topo),
            batch_policy=BatchPolicy(max_batch=4, max_wait_s=0.2e-3),
            autoscale_policy=AutoscalePolicy(
                interval_s=1e-3, queue_high_per_board=2.0,
                min_active=1, max_step=1,
            ),
        ).run(arrivals(n=400, rate=20000.0))
        assert report.autoscale_ticks > 0
        assert report.scale_ups > 0
        assert report.cold_starts >= report.scale_ups
        assert report.conserved
        assert "autoscale" in report.describe()

    def test_emergency_activation_rescues_stranded_queue(self):
        # min_active=1 keeps only board b0 in the set; killing it with
        # no recovery forces the scaler's emergency path to activate a
        # standby board — without it the queue would strand-drop.
        topo = build_fleet(1, 2)
        report = ClusterEngine(
            FleetService(model(), topo),
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            retry_policy=RetryPolicy(max_attempts=6, backoff_base_s=0.2e-3),
            fault_schedule=FaultSchedule.from_events(
                [ReplicaCrash(4e-3, "rack0/b0")]),
            autoscale_policy=AutoscalePolicy(
                interval_s=1e-3, min_active=1, max_active=1,
            ),
        ).run(arrivals(n=200, rate=6000.0))
        assert report.scale_ups >= 1
        assert report.conserved
        assert report.availability > 0.5


class TestObservability:
    def _run(self, tracer=None, metrics=None):
        topo = build_fleet(2, 2)
        return ClusterEngine(
            FleetService(model(), topo),
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.2e-3),
            fault_schedule=FaultSchedule.from_events([
                RackPowerLoss(5e-3, "rack0"),
                RackPowerRestore(15e-3, "rack0"),
            ]),
            autoscale_policy=AutoscalePolicy(interval_s=2e-3),
            tracer=tracer, metrics=metrics,
        ).run(arrivals())

    def test_cluster_trace_instants(self):
        tracer = Tracer()
        self._run(tracer=tracer)
        names = {i.name for i in tracer.instants}
        assert "cluster.drain" in names
        assert "cluster.readmit" in names
        assert "fault.rack_power_loss" in names

    def test_cluster_metrics(self):
        from repro.trace import prometheus_text
        metrics = MetricsRegistry()
        self._run(metrics=metrics)
        text = prometheus_text(metrics)
        assert "cluster_drains" in text
        assert "cluster_readmits" in text
        assert "cluster_queue_depth" in text
        assert "cluster_rack_utilization" in text

    def test_windowed_p99_covers_makespan(self):
        report = self._run()
        curve = report.windowed_p99(5e-3)
        assert len(curve) >= 2
        assert all(p99 >= 0.0 for _, p99 in curve)
        with pytest.raises(ServingError):
            report.windowed_p99(0.0)


class TestValidation:
    def test_plain_replica_service_runs_as_one_rack(self):
        """A service without a topology is served as one rack of boards
        named by its replicas: the core report equals ServingEngine's,
        and a single rack gets no per-domain rollup or rack gauges."""
        names = ["overlay0", "overlay1"]
        kwargs = dict(
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            fault_schedule=board_schedule(names),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
            integrity_policy="detect-correct",
        )
        load = dict(n=600, rate=12000.0, deadline_s=5e-3)
        metrics = MetricsRegistry()
        cluster = ClusterEngine(
            ReplicaService(model(), n_replicas=2), hedge_retries=False,
            metrics=metrics, **kwargs,
        ).run(arrivals(**load))
        single = ServingEngine(
            ReplicaService(model(), n_replicas=2), **kwargs
        ).run(arrivals(**load))
        assert (cluster.n_racks, cluster.n_boards) == (1, 2)
        assert snapshot(cluster) == snapshot(single)
        assert cluster.core.health.describe() == single.health.describe()
        assert cluster.core.health.per_domain == {}
        from repro.trace import prometheus_text
        text = prometheus_text(metrics)
        assert "serving_replica_utilization" in text
        assert "cluster_rack_utilization" not in text

    def test_rejects_empty_requests(self):
        topo = build_fleet(1, 1)
        engine = ClusterEngine(FleetService(model(), topo))
        with pytest.raises(ServingError):
            engine.run([])

    def test_rejects_unsorted_arrivals(self):
        topo = build_fleet(1, 1)
        engine = ClusterEngine(FleetService(model(), topo))
        requests = arrivals(n=4)
        requests.reverse()
        with pytest.raises(ServingError):
            engine.run(requests)

    def test_rejects_nonpositive_slo(self):
        topo = build_fleet(1, 1)
        for slo_s in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ServingError, match="slo_s"):
                ClusterEngine(FleetService(model(), topo), slo_s=slo_s)


class TestFaultTargets:
    """Every fault event's target is checked when the engine is built:
    a board event must name a board, a domain event a rack."""

    TOPO = build_fleet(2, 2)

    def _build(self, event):
        return ClusterEngine(
            FleetService(model(), self.TOPO),
            fault_schedule=FaultSchedule.from_events([event]),
        )

    @pytest.mark.parametrize("make", [
        lambda name: ReplicaCrash(1e-3, name),
        lambda name: ReplicaRecovery(1e-3, name),
        lambda name: ReplicaSlowdown(1e-3, name, factor=2.0),
        lambda name: TPEFault(1e-3, name, 0, 0, 0, stuck=True),
        lambda name: DramBitFlip(1e-3, name, correctable=False),
        lambda name: LinkFault(1e-3, name),
    ])
    def test_board_event_must_name_a_board(self, make):
        for target in ("nope", "rack0"):
            with pytest.raises(FaultError, match="unknown board") as info:
                self._build(make(target))
            assert info.value.replica == target
            assert info.value.at_s == 1e-3
        self._build(make("rack1/b0"))

    @pytest.mark.parametrize("make", [
        lambda name: RackPowerLoss(2e-3, name),
        lambda name: RackPowerRestore(2e-3, name),
        lambda name: NetworkPartition(2e-3, name),
        lambda name: NetworkHeal(2e-3, name),
        lambda name: CorrelatedDramFault(2e-3, name, n_flips=2),
    ])
    def test_domain_event_must_name_a_rack(self, make):
        for target in ("nope", "rack0/b1"):
            with pytest.raises(FaultError, match="unknown rack") as info:
                self._build(make(target))
            assert info.value.replica == target
            assert info.value.at_s == 2e-3
        self._build(make("rack1"))

    def test_serving_engine_checks_before_running(self):
        # Before the check a link fault or DRAM upset on an unknown
        # replica was counted as applied and did nothing.
        for event in (LinkFault(0.0, "nope"), DramBitFlip(0.0, "nope")):
            with pytest.raises(FaultError, match="unknown board"):
                ServingEngine(
                    ReplicaService(model(), n_replicas=2),
                    fault_schedule=FaultSchedule.from_events([event]),
                )


class TestDeterminism:
    def test_full_featured_run_is_bit_identical(self):
        def run():
            topo = build_fleet(2, 3)
            service = FleetService(model(), topo)
            from repro.cluster import generate_domain_fault_schedule
            faults = FaultSchedule.merge(
                generate_domain_fault_schedule(
                    seed=3, duration_s=0.05, topology=topo,
                    rack_loss_rate_hz=20.0, partition_rate_hz=10.0,
                    correlated_dram_rate_hz=10.0,
                ),
                board_schedule(topo.board_names, seed=4, duration_s=0.05),
            )
            requests = arrivals(n=400, rate=12000.0)
            for i, request in enumerate(requests):
                request.tenant = ("alpha", "beta")[i % 2]
            return ClusterEngine(
                service,
                batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
                retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.2e-3),
                integrity_policy="detect-correct",
                tenant_policy=TenantPolicy(
                    weights={"alpha": 2.0}, quotas={"beta": 32}),
                autoscale_policy=AutoscalePolicy(interval_s=2e-3),
            ).run(requests)

        a, b = run(), run()
        assert snapshot(a) == snapshot(b)
        assert a.describe() == b.describe()
        assert a.conserved and b.conserved


class TestDomainHealthMonitor:
    """Satellite: the router's ledger rolls per-rack MTTR/availability
    into the health report for a fleet of two or more racks."""

    def test_per_domain_rollup(self):
        router = ClusterRouter(FleetTopology(racks=(
            Rack("rack0", (Board("a", "rack0"), Board("b", "rack0"))),
            Rack("rack1", (Board("c", "rack1"),)),
        )))
        router.crash("a", 1.0)
        router.recover("a", 3.0)
        router.crash("b", 2.0)
        router.recover("b", 3.0)
        router.by_name("c").dram_uncorrectable += 1
        report = router.health_report(10.0, 0.0)
        rack0 = report.per_domain["rack0"]
        assert rack0.crashes == 2 and rack0.recoveries == 2
        assert rack0.mttr_s == pytest.approx(1.5)
        assert rack0.downtime_s == pytest.approx(3.0)
        assert rack0.availability == pytest.approx(1 - 3.0 / 20.0)
        rack1 = report.per_domain["rack1"]
        assert rack1.crashes == 0
        assert rack1.dram_uncorrectable == 1
        assert rack1.availability == 1.0

    def test_no_domains_no_rollup(self):
        router = ClusterRouter(build_fleet(1, 1))
        router.crash("rack0/b0", 1.0)
        report = router.health_report(2.0, 0.0)
        assert report.per_domain == {}
        assert "domains" not in report.describe()
