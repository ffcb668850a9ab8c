"""Seeded fuzz over (fleet size x fault schedule x tenant mix).

Every draw must satisfy the cluster's core properties: the run is
bit-reproducible, per-tenant accounting is conserved under rack loss,
and a degenerate cluster configuration reproduces the standalone
ServingEngine bit for bit with integrity enabled.
"""

import random

import pytest

from repro.cluster import (
    AutoscalePolicy,
    ClusterEngine,
    FleetService,
    TenantPolicy,
    build_fleet,
    generate_domain_fault_schedule,
)
from repro.faults import FaultSchedule, generate_fault_schedule
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
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network

CONFIG = OverlayConfig(
    d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
    s_psumbuf_words=512, clk_h_mhz=650.0,
)
NETWORK = Network(
    name="mm", application="fuzz",
    layers=(MatMulLayer(name="fc", in_features=192, out_features=160,
                        batch=2),),
)
_MODEL: list[BatchServiceModel] = []

TENANT_MIXES = (
    {},  # single implicit tenant
    {"alpha": 1.0},
    {"alpha": 2.0, "beta": 1.0},
    {"alpha": 3.0, "beta": 1.0, "gamma": 0.5},
)


def model() -> BatchServiceModel:
    if not _MODEL:
        _MODEL.append(BatchServiceModel(NETWORK, CONFIG))
    return _MODEL[0]


def draw_case(seed: int):
    """One deterministic fuzz draw: fleet, faults, tenants, load."""
    rng = random.Random(seed)
    n_racks = rng.randint(1, 3)
    per_rack = rng.randint(1, 4)
    topo = build_fleet(n_racks, per_rack)
    weights = dict(rng.choice(TENANT_MIXES))
    quotas = (
        {t: rng.randint(8, 64) for t in weights if rng.random() < 0.5}
        if weights else {}
    )
    duration = 0.05
    faults = FaultSchedule.merge(
        generate_domain_fault_schedule(
            seed=seed + 1, duration_s=duration, topology=topo,
            rack_loss_rate_hz=rng.choice([0.0, 20.0, 40.0]),
            mean_rack_repair_s=rng.choice([0.002, 0.01]),
            partition_rate_hz=rng.choice([0.0, 20.0]),
            mean_partition_s=0.004,
            correlated_dram_rate_hz=rng.choice([0.0, 20.0]),
        ),
        generate_fault_schedule(
            seed=seed + 2, duration_s=duration,
            replicas=list(topo.board_names), grid=CONFIG,
            crash_rate_hz=rng.choice([0.0, 30.0]),
            mean_repair_s=0.005,
            bitflip_rate_hz=rng.choice([0.0, 100.0]),
            correctable_fraction=0.5,
            tpe_fault_rate_hz=rng.choice([0.0, 50.0]),
            stuck_fraction=0.2,
        ),
    )
    requests = make_requests(
        poisson_arrivals(
            rng.choice([4000.0, 9000.0, 15000.0]), 300, seed=seed + 3,
        ),
        "mm", deadline_s=rng.choice([None, 10e-3, 25e-3]),
    )
    if weights:
        tenants = sorted(weights)
        for i, request in enumerate(requests):
            request.tenant = tenants[i % len(tenants)]
    engine_kwargs = dict(
        batch_policy=BatchPolicy(
            max_batch=rng.choice([4, 8]), max_wait_s=0.5e-3),
        admission_policy=AdmissionPolicy(
            capacity=rng.choice([64, 256])),
        fault_schedule=faults,
        retry_policy=RetryPolicy(
            max_attempts=rng.randint(2, 5), backoff_base_s=0.2e-3),
        integrity_policy=rng.choice(
            ["off", "detect", "detect-reexecute", "detect-correct"]),
        tenant_policy=TenantPolicy(weights=weights, quotas=quotas),
        autoscale_policy=(
            AutoscalePolicy(interval_s=2e-3, min_active=1)
            if rng.random() < 0.5 else None
        ),
        hedge_retries=rng.random() < 0.5,
    )
    return topo, requests, engine_kwargs


def run_case(seed: int):
    topo, requests, kwargs = draw_case(seed)
    report = ClusterEngine(
        FleetService(model(), topo), **kwargs
    ).run(requests)
    return topo, requests, report


def signature(report):
    core = report.core
    return (
        tuple((r.request_id, r.complete_s, r.replica, r.attempts)
              for r in core.completed),
        tuple((r.request_id, r.drop_reason) for r in core.dropped),
        core.n_rejected, core.n_retries, core.makespan_s,
        tuple(sorted(core.utilization.items())),
        tuple(sorted(core.fault_counts.items())),
        tuple(sorted(core.integrity_counts.items())),
        report.describe(),
    )


SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_draw_conserves_per_tenant(seed):
    topo, requests, report = run_case(seed)
    assert report.conserved
    for stats in report.per_tenant.values():
        assert stats.n_offered == (
            stats.n_completed + stats.n_rejected + stats.n_dropped
        )
        assert stats.n_quota_rejected <= stats.n_rejected
        assert 0.0 <= stats.availability <= 1.0
    # The tenant ledgers partition the global ledger exactly.
    assert sum(t.n_offered for t in report.per_tenant.values()) == \
        report.n_offered
    assert sum(t.n_completed for t in report.per_tenant.values()) == \
        report.n_completed
    assert sum(t.n_dropped for t in report.per_tenant.values()) == \
        report.n_dropped
    assert sum(t.n_rejected for t in report.per_tenant.values()) == \
        report.n_rejected
    assert 0.0 <= report.availability <= 1.0
    # Per tenant, the outcome tuples partition the offered request ids.
    core = report.core
    for tenant, stats in report.per_tenant.items():
        offered = sorted(r.request_id for r in requests
                         if r.tenant == tenant)
        ended = sorted(
            r.request_id
            for r in core.completed + core.dropped + core.rejected
            if r.tenant == tenant
        )
        assert ended == offered
        quota = [r for r in core.rejected
                 if r.tenant == tenant and r.reject_reason == REJECT_QUOTA]
        assert len(quota) == stats.n_quota_rejected
    assert {r.reject_reason for r in core.rejected} <= {
        REJECT_CAPACITY, REJECT_QUOTA,
    }
    # A multi-rack fleet's per-rack health counts partition the fleet's.
    health = core.health
    if health is not None and topo.n_racks > 1:
        domains = health.per_domain.values()
        assert (
            sum(d.crashes for d in domains),
            sum(d.recoveries for d in domains),
            sum(d.dram_uncorrectable for d in domains),
        ) == (health.crashes, health.recoveries, health.dram_uncorrectable)


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 16])
def test_same_seed_runs_are_bit_identical(seed):
    _, _, a = run_case(seed)
    _, _, b = run_case(seed)
    assert signature(a) == signature(b)


def test_draws_exercise_the_interesting_paths():
    # The fuzz only means something if the space it walks actually hits
    # faults, drops, retries, multi-tenant mixes and the autoscaler.
    reports = [run_case(seed)[2] for seed in SEEDS]
    assert any(r.core.fault_counts for r in reports)
    assert any(r.core.n_retries > 0 for r in reports)
    assert any(r.n_dropped > 0 for r in reports)
    assert any(len(r.per_tenant) > 1 for r in reports)
    assert any(r.autoscale_ticks > 0 for r in reports)
    assert any(r.drains > 0 for r in reports)


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_degenerate_cluster_matches_serving_engine(seed):
    """detect-correct, standalone vs behind the router: bit-identical."""
    rng = random.Random(1000 + seed)
    n_boards = rng.randint(1, 3)
    names = [f"overlay{i}" for i in range(n_boards)]
    schedule = generate_fault_schedule(
        seed=seed, duration_s=0.05, replicas=names, grid=CONFIG,
        crash_rate_hz=40.0, mean_repair_s=0.008,
        bitflip_rate_hz=150.0, correctable_fraction=0.3,
        tpe_fault_rate_hz=80.0, stuck_fraction=0.2,
    )
    kwargs = dict(
        batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
        admission_policy=AdmissionPolicy(capacity=64),
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
        integrity_policy="detect-correct",
    )
    requests = lambda: make_requests(  # noqa: E731
        poisson_arrivals(9000.0, 400, seed=seed), "mm", deadline_s=8e-3,
    )
    single = ServingEngine(
        ReplicaService(model(), n_replicas=n_boards), **kwargs
    ).run(requests())
    cluster = ClusterEngine(
        FleetService(model(), build_fleet(1, n_boards, board_names=names)),
        hedge_retries=False, **kwargs
    ).run(requests())
    assert tuple(
        (r.request_id, r.complete_s, r.replica, r.attempts, r.batch_size)
        for r in single.completed
    ) == tuple(
        (r.request_id, r.complete_s, r.replica, r.attempts, r.batch_size)
        for r in cluster.core.completed
    )
    assert tuple((r.request_id, r.drop_reason) for r in single.dropped) \
        == tuple((r.request_id, r.drop_reason)
                 for r in cluster.core.dropped)
    assert single.n_rejected == cluster.core.n_rejected
    assert single.n_retries == cluster.core.n_retries
    assert single.makespan_s == cluster.core.makespan_s
    assert single.utilization == cluster.core.utilization
    assert single.integrity_counts == cluster.core.integrity_counts
    assert single.fault_counts == cluster.core.fault_counts
    assert (single.health.crashes, single.health.mttr_s,
            single.health.downtime_s) == \
        (cluster.core.health.crashes, cluster.core.health.mttr_s,
         cluster.core.health.downtime_s)
