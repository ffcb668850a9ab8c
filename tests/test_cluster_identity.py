"""Cluster identity: seeded multi-tenant ClusterEngine runs pinned by a golden.

Each golden line is one seeded :class:`ClusterEngine` run on a fleet of
16 or more boards with tracing and metrics on: a sha256 over the run's
outcomes, one over its ledgers, then a sha256 of its Chrome-trace JSON
and one of its Prometheus text.  The outcome digest covers every
completed request's ``(request_id, tenant, dispatch_s, complete_s,
replica, attempts, batch_size)``, every drop's ``(request_id, tenant,
drop_reason, attempts)`` and every rejection's ``(request_id, tenant,
reject_reason)``, each in the order the run recorded them, so a change
in multi-tenant shed order or board placement shows up as a diff.  The
ledger digest covers the per-tenant ledgers, the full health report
(per-board downtime and the per-rack rollup), the report's
``describe()`` text, per-board and per-rack utilization and the fault
and integrity counts.

The cases mix two and three tenants with quotas, hedged and unhedged
retries, the autoscaler, rack power loss, network partitions,
correlated DRAM faults and per-board crashes, upsets and stuck TPEs,
under ``detect-correct`` and other integrity policies, with deadlines
tight enough that deep multi-tenant queues shed work.

The golden was recorded before the deadline heap replaced the queue
rescan; it must not be regenerated to make an engine change pass.
Regenerate only for an intended change of serving results::

    PYTHONPATH=src python tests/test_cluster_identity.py > tests/golden/cluster_identity.txt
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

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
from repro.serving.request import RetryPolicy, make_requests, poisson_arrivals
from repro.trace.export import chrome_trace_json, prometheus_text
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network

GOLDEN = Path(__file__).parent / "golden" / "cluster_identity.txt"

CONFIG = OverlayConfig(
    d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
    s_psumbuf_words=512, clk_h_mhz=650.0,
)
NETWORK = Network(
    name="mm", application="test",
    layers=(MatMulLayer(name="fc", in_features=768, out_features=640,
                        batch=2),),
)
DURATION_S = 0.08
TICK_S = 50e-6

_MODEL: list[BatchServiceModel] = []


def _model() -> BatchServiceModel:
    if not _MODEL:
        _MODEL.append(BatchServiceModel(NETWORK, CONFIG))
    return _MODEL[0]


#: (case id, racks, boards per rack, tenant weights, tenant quotas,
#:  tenant arrival pattern, integrity, hedge, autoscale, load as the
#:  (rate, count) of a light then a heavy arrival phase, domain fault
#:  rates, board fault rates).
CASES = (
    ("fleet16/two-tenant", 4, 4, {"alpha": 2.0, "beta": 1.0},
     {"beta": 40}, ("alpha", "beta", "beta"), "detect-correct", True,
     AutoscalePolicy(interval_s=2e-3, min_active=4),
     dict(light=(12000.0, 500), heavy=(80000.0, 1500), deadline_s=3e-3,
          capacity=384),
     dict(rack_loss_rate_hz=40.0, mean_rack_repair_s=0.006,
          partition_rate_hz=30.0, mean_partition_s=0.004,
          correlated_dram_rate_hz=40.0),
     dict(crash_rate_hz=30.0, mean_repair_s=0.004, bitflip_rate_hz=60.0,
          tpe_fault_rate_hz=40.0)),
    ("fleet16/three-tenant", 2, 8,
     {"alpha": 3.0, "beta": 1.0, "gamma": 0.5},
     {"alpha": 96, "gamma": 24}, ("gamma", "alpha", "beta", "alpha"),
     "detect-correct", True,
     AutoscalePolicy(interval_s=1.5e-3, min_active=2, cooldown_ticks=1),
     dict(light=(15000.0, 600), heavy=(90000.0, 1400), deadline_s=2.5e-3,
          capacity=512),
     dict(rack_loss_rate_hz=30.0, mean_rack_repair_s=0.008,
          partition_rate_hz=40.0, mean_partition_s=0.003,
          correlated_dram_rate_hz=50.0),
     dict(crash_rate_hz=40.0, mean_repair_s=0.003, bitflip_rate_hz=80.0,
          tpe_fault_rate_hz=60.0)),
    ("fleet18/unhedged", 3, 6, {"alpha": 1.0, "beta": 1.0},
     {"alpha": 96}, ("alpha", "beta"),
     "detect-reexecute", False, None,
     dict(light=(20000.0, 800), heavy=(75000.0, 1200), deadline_s=4e-3,
          capacity=128),
     dict(rack_loss_rate_hz=30.0, mean_rack_repair_s=0.005,
          partition_rate_hz=30.0, mean_partition_s=0.004,
          correlated_dram_rate_hz=30.0),
     dict(crash_rate_hz=30.0, mean_repair_s=0.004, bitflip_rate_hz=60.0,
          tpe_fault_rate_hz=40.0)),
    ("fleet16/eight-racks", 8, 2, {"alpha": 1.0, "beta": 2.0},
     {"alpha": 48}, ("beta", "alpha", "beta"), "detect", True, None,
     dict(light=(20000.0, 700), heavy=(70000.0, 1300), deadline_s=3e-3,
          capacity=320),
     dict(rack_loss_rate_hz=20.0, mean_rack_repair_s=0.006,
          partition_rate_hz=20.0, mean_partition_s=0.005,
          correlated_dram_rate_hz=20.0),
     dict(crash_rate_hz=50.0, mean_repair_s=0.005, bitflip_rate_hz=80.0,
          tpe_fault_rate_hz=50.0)),
)


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:32]


def _serve(case, tracer=None, metrics=None):
    (_, n_racks, per_rack, weights, quotas, pattern, integrity, hedge,
     autoscale, load, domain_rates, board_rates) = case
    topo = build_fleet(n_racks, per_rack)
    seed = n_racks * 100 + per_rack
    faults = FaultSchedule.merge(
        generate_domain_fault_schedule(
            seed=seed, duration_s=DURATION_S, topology=topo,
            **domain_rates,
        ),
        generate_fault_schedule(
            seed=seed + 1, duration_s=DURATION_S,
            replicas=list(topo.board_names), grid=CONFIG,
            correctable_fraction=0.5, stuck_fraction=0.2, **board_rates,
        ),
    )
    # A light phase (the autoscaler drains boards) then an overload
    # (it brings them back while deep queues shed on deadline).  Arrivals
    # land on a 50 us tick, so bursts of several tenants arrive, and
    # expire, at one instant.
    light = poisson_arrivals(*load["light"], seed=seed + 2)
    heavy = poisson_arrivals(*load["heavy"], seed=seed + 3,
                             start_s=light[-1])
    requests = make_requests(
        [math.ceil(t / TICK_S) * TICK_S for t in light + heavy], "mm",
        deadline_s=load["deadline_s"],
    )
    for i, request in enumerate(requests):
        request.tenant = pattern[i % len(pattern)]
    report = ClusterEngine(
        FleetService(_model(), topo),
        batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.4e-3),
        admission_policy=AdmissionPolicy(capacity=load["capacity"]),
        fault_schedule=faults,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
        integrity_policy=integrity,
        tenant_policy=TenantPolicy(weights=weights, quotas=quotas),
        autoscale_policy=autoscale,
        hedge_retries=hedge,
        tracer=tracer,
        metrics=metrics,
    ).run(requests)
    return report


def identity_line(case) -> str:
    """One golden line: outcome, ledger, trace and metrics digests."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = _serve(case, tracer=tracer, metrics=metrics)
    core = report.core
    outcome_sha = _digest([
        [(r.request_id, r.tenant, r.dispatch_s, r.complete_s, r.replica,
          r.attempts, r.batch_size) for r in core.completed],
        [(r.request_id, r.tenant, r.drop_reason, r.attempts)
         for r in core.dropped],
        [(r.request_id, r.tenant, r.reject_reason) for r in core.rejected],
    ])
    ledger_sha = _digest([
        sorted(report.per_tenant.items()),
        repr(core.health),
        report.describe(),
        sorted(core.utilization.items()),
        sorted(report.rack_utilization.items()),
        core.queue_depth_time_avg,
        core.queue_depth_max,
        core.degraded_dispatches,
        sorted(core.fault_counts.items()),
        sorted(core.integrity_counts.items()),
    ])
    trace_sha = hashlib.sha256(
        chrome_trace_json(tracer).encode()).hexdigest()[:32]
    prom_sha = hashlib.sha256(
        prometheus_text(metrics).encode()).hexdigest()[:32]
    drops = sorted(core.drop_reasons.items())
    return (
        f"{case[0]} {case[6]} completed={report.n_completed} "
        f"dropped={report.n_dropped} rejected={report.n_rejected} "
        f"drops={','.join(f'{k}:{v}' for k, v in drops)} "
        f"hedged={report.hedged_dispatches} "
        f"scale={report.scale_ups}/{report.scale_downs} "
        f"outcomes={outcome_sha} ledgers={ledger_sha} "
        f"trace={trace_sha} prom={prom_sha}"
    )


def all_lines() -> list[str]:
    return [identity_line(case) for case in CASES]


def test_cluster_runs_match_golden():
    expected = GOLDEN.read_text().splitlines()
    assert all_lines() == expected


def test_cases_exercise_every_path():
    """Guard against the golden passing vacuously: together the cases
    must shed queued work of several tenants on deadline at one instant
    (in tenant first-push order, not push order),
    reject on quota and capacity, retry, hedge, autoscale both ways and
    take every correlated fault family."""
    kinds: set[str] = set()
    rejects: set[str] = set()
    multi_tenant_shed = False
    hedged = scaled_up = scaled_down = 0
    for case in CASES:
        tracer = Tracer()
        report = _serve(case, tracer=tracer)
        core = report.core
        assert report.n_boards >= 16
        assert len(report.per_tenant) >= 2
        kinds |= set(core.fault_counts)
        rejects |= {r.reject_reason for r in core.rejected}
        hedged += report.hedged_dispatches
        scaled_up += report.scale_ups
        scaled_down += report.scale_downs
        assert core.n_retries > 0
        # A deadline drop's span ends at the instant it was shed.  Some
        # instant must shed requests of two or more tenants in tenant
        # order, which is not push order.
        tenant_of = {r.request_id: r.tenant for r in core.dropped}
        sheds: list[tuple[float, list[int]]] = []
        for span in tracer.find("request"):
            if span.args.get("reason") != "deadline":
                continue
            if not sheds or sheds[-1][0] != span.end:
                sheds.append((span.end, []))
            sheds[-1][1].append(span.args["id"])
        multi_tenant_shed |= any(
            len({tenant_of[i] for i in ids}) > 1 and ids != sorted(ids)
            for _, ids in sheds
        )
    assert multi_tenant_shed
    assert {"rack_power_loss", "rack_power_restore", "rack_partition",
            "rack_heal", "dram_correlated", "crash"} <= kinds
    assert {"capacity", "tenant_quota"} <= rejects
    assert hedged > 0 and scaled_up > 0 and scaled_down > 0


if __name__ == "__main__":
    for line in all_lines():
        print(line)
