"""Serving identity: seeded ServingEngine runs pinned by a golden.

Each golden line is one seeded :class:`ServingEngine` run with tracing
and metrics on: a sha256 over everything the run reports, then a sha256
of its Chrome-trace JSON and one of its Prometheus text.  The report
digest covers every completed request's
``(request_id, dispatch_s, complete_s, replica, attempts, batch_size)``,
every drop with its reason, the rejected and retry counts, the
makespan, per-replica utilization, the queue-depth average and maximum,
degraded dispatches, fault and integrity counts, and
``health.describe()``.

The cases span replica counts (1, 2, 4), a multi-device pipeline and a
duck-typed service with no ``latency_split`` / ``degrade_slowdown``;
all four integrity policies; and fault mixes with crash/recovery,
slowdown, stuck and transient TPE faults (including a replica whose
last healthy sub-grid goes, which crashes it), correctable and
uncorrectable DRAM upsets and link faults.  Any change to the serving
loop that moves a dispatch, a drop, a counter or a trace event shows up
as a diff.

The golden was recorded before the serving loops were merged; it must
not be regenerated to make an engine change pass.  Regenerate only for
an intended change of serving results::

    PYTHONPATH=src python tests/test_serving_identity.py > tests/golden/serving_identity.txt
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.compiler.cache import CacheStats
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
from repro.serving.request import RetryPolicy, make_requests, poisson_arrivals
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.trace.export import chrome_trace_json, prometheus_text
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network

GOLDEN = Path(__file__).parent / "golden" / "serving_identity.txt"

CONFIG = OverlayConfig(
    d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
    s_psumbuf_words=512, clk_h_mhz=650.0,
)
NETWORK = Network(
    name="mm", application="test",
    layers=(MatMulLayer(name="fc", in_features=768, out_features=640,
                        batch=2),),
)
PIPE_NETWORK = Network(
    name="mm2", application="test",
    layers=(
        MatMulLayer(name="fc1", in_features=768, out_features=512),
        MatMulLayer(name="fc2", in_features=512, out_features=384),
    ),
)

_MODELS: dict[str, object] = {}


def _model() -> BatchServiceModel:
    return _MODELS.setdefault("mm", BatchServiceModel(NETWORK, CONFIG))


def _pipeline() -> PipelineService:
    return _MODELS.setdefault(
        "pipe", PipelineService(PIPE_NETWORK, CONFIG, n_devices=2)
    )


class BareService:
    """Duck-typed service: fixed costs, no latency_split or
    degrade_slowdown (so it takes no stuck-TPE faults)."""

    def __init__(self, n_replicas: int, service_s: float):
        self.n_replicas = n_replicas
        self._service_s = service_s

    def latency_s(self, batch_size: int) -> float:
        return self._service_s * (1.0 + 0.125 * batch_size)

    def occupancy_s(self, batch_size: int) -> float:
        return self._service_s * (0.75 + 0.125 * batch_size)

    def cache_stats(self) -> CacheStats:
        return CacheStats(hits=0, misses=0, evictions=0, size=0,
                          max_entries=None)

    def replica_names(self) -> list[str]:
        return [f"bare{i}" for i in range(self.n_replicas)]


def _mixed_faults(names, seed: int, *, tpe: bool = True) -> FaultSchedule:
    """Every per-board fault family, drawn from one seed."""
    return generate_fault_schedule(
        seed=seed, duration_s=0.06, replicas=list(names), grid=CONFIG,
        crash_rate_hz=60.0, mean_repair_s=0.008,
        slowdown_rate_hz=40.0, mean_slowdown_s=0.01,
        tpe_fault_rate_hz=80.0 if tpe else 0.0, stuck_fraction=0.15,
        bitflip_rate_hz=200.0, correctable_fraction=0.4,
        link_fault_rate_hz=40.0,
    )


def _grid_death(names) -> FaultSchedule:
    """Stuck TPEs until ``names[0]`` has no healthy sub-grid (it
    crashes), a recovery that finds the grid still dead, plus a
    slowdown, DRAM upsets and a link fault on the other replicas."""
    victim = names[0]
    events = [
        TPEFault(0.004 + 0.0015 * i, victim, row, col, pos, stuck=True)
        for i, (row, col, pos) in enumerate(
            (r, c, p) for r in range(CONFIG.d3) for c in range(CONFIG.d2)
            for p in range(CONFIG.d1)
        )
    ]
    events.append(ReplicaRecovery(0.030, victim))
    events.append(TPEFault(0.031, victim, 0, 0, 0, stuck=True))
    for other in names[1:]:
        events += [
            ReplicaSlowdown(0.006, other, factor=1.5),
            DramBitFlip(0.009, other, correctable=True),
            DramBitFlip(0.012, other, correctable=False),
            TPEFault(0.014, other, 0, 1, 2, stuck=False),
            LinkFault(0.016, other),
            ReplicaCrash(0.020, other),
            ReplicaRecovery(0.026, other),
        ]
    return FaultSchedule.from_events(events)


def _stranded(names) -> FaultSchedule:
    """The only replica crashes for good: queued work strands."""
    return FaultSchedule.from_events([
        LinkFault(0.005, names[0]),
        ReplicaCrash(0.012, names[0]),
    ])


#: (case id, service factory, fault builder, integrity, load knobs).
CASES = (
    ("replica1/mixed", lambda: ReplicaService(_model(), 1),
     lambda n: _mixed_faults(n, 11), "off",
     dict(n=300, rate=4500.0, deadline_s=10e-3)),
    ("replica2/mixed", lambda: ReplicaService(_model(), 2),
     lambda n: _mixed_faults(n, 12), "off",
     dict(n=500, rate=8500.0, deadline_s=8e-3)),
    ("replica2/mixed", lambda: ReplicaService(_model(), 2),
     lambda n: _mixed_faults(n, 12), "detect",
     dict(n=500, rate=8500.0, deadline_s=8e-3)),
    ("replica2/mixed", lambda: ReplicaService(_model(), 2),
     lambda n: _mixed_faults(n, 12), "detect-reexecute",
     dict(n=500, rate=8500.0, deadline_s=8e-3)),
    ("replica2/mixed", lambda: ReplicaService(_model(), 2),
     lambda n: _mixed_faults(n, 12), "detect-correct",
     dict(n=500, rate=8500.0, deadline_s=8e-3)),
    ("replica4/mixed", lambda: ReplicaService(_model(), 4),
     lambda n: _mixed_faults(n, 13), "detect-correct",
     dict(n=800, rate=15000.0, deadline_s=None)),
    ("replica2/grid-death", lambda: ReplicaService(_model(), 2),
     _grid_death, "detect-reexecute",
     dict(n=300, rate=6000.0, deadline_s=12e-3)),
    ("pipeline/mixed", _pipeline,
     lambda n: _mixed_faults(n, 14), "detect-reexecute",
     dict(n=300, rate=9000.0, deadline_s=8e-3)),
    ("bare3/mixed", lambda: BareService(3, 4e-4),
     lambda n: _mixed_faults(n, 15, tpe=False), "off",
     dict(n=600, rate=24000.0, deadline_s=4e-3)),
    ("bare3/mixed", lambda: BareService(3, 4e-4),
     lambda n: _mixed_faults(n, 15, tpe=False), "detect",
     dict(n=600, rate=24000.0, deadline_s=4e-3)),
    ("bare1/stranded", lambda: BareService(1, 3e-4),
     _stranded, "off",
     dict(n=200, rate=6000.0, deadline_s=None)),
)


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:32]


def _serve(make_service, make_faults, integrity: str, load: dict,
           tracer=None, metrics=None):
    service = make_service()
    requests = make_requests(
        poisson_arrivals(load["rate"], load["n"], seed=load["n"]),
        "mm", deadline_s=load["deadline_s"],
    )
    return ServingEngine(
        service,
        batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
        admission_policy=AdmissionPolicy(capacity=48),
        fault_schedule=make_faults(service.replica_names()),
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
        integrity_policy=integrity,
        tracer=tracer,
        metrics=metrics,
    ).run(requests)


def identity_line(case: str, make_service, make_faults, integrity: str,
                  load: dict) -> str:
    """One golden line: report, trace and metrics digests plus counts."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = _serve(make_service, make_faults, integrity, load,
                    tracer=tracer, metrics=metrics)
    report_sha = _digest([
        [(r.request_id, r.dispatch_s, r.complete_s, r.replica, r.attempts,
          r.batch_size) for r in report.completed],
        [(r.request_id, r.drop_reason, r.attempts) for r in report.dropped],
        report.n_rejected,
        report.n_retries,
        report.makespan_s,
        sorted(report.utilization.items()),
        report.queue_depth_time_avg,
        report.queue_depth_max,
        report.degraded_dispatches,
        sorted(report.fault_counts.items()),
        sorted(report.integrity_counts.items()),
        report.health.describe() if report.health else None,
    ])
    trace_sha = hashlib.sha256(
        chrome_trace_json(tracer).encode()).hexdigest()[:32]
    prom_sha = hashlib.sha256(
        prometheus_text(metrics).encode()).hexdigest()[:32]
    return (
        f"{case} {integrity} completed={len(report.completed)} "
        f"dropped={len(report.dropped)} rejected={report.n_rejected} "
        f"retries={report.n_retries} faults={sum(report.fault_counts.values())} "
        f"report={report_sha} trace={trace_sha} prom={prom_sha}"
    )


def all_lines() -> list[str]:
    return [identity_line(*case) for case in CASES]


def test_serving_runs_match_golden():
    expected = GOLDEN.read_text().splitlines()
    assert all_lines() == expected


def test_cases_exercise_every_path():
    """Guard against the golden passing vacuously: the cases together
    must retry, drop for every reason, detect/correct/re-execute SDC,
    and take a replica down through stuck TPEs alone."""
    reasons: set[str] = set()
    kinds: set[str] = set()
    integrity: set[str] = set()
    for case, make_service, make_faults, policy, load in CASES:
        report = _serve(make_service, make_faults, policy, load)
        reasons |= set(report.drop_reasons)
        kinds |= set(report.fault_counts)
        integrity |= set(report.integrity_counts)
        if case == "replica2/grid-death":
            # overlay0 only ever receives stuck-TPE faults and a recovery.
            assert report.health.per_replica_downtime_s["overlay0"] > 0
    assert {"deadline", "retry_exhausted", "sdc_detected",
            "no_healthy_replica"} <= reasons
    assert {"crash", "recovery", "slowdown", "tpe_stuck", "tpe_transient",
            "dram_ecc", "dram_uncorrectable", "link"} <= kinds
    assert {"sdc_detected", "corrected", "reexecuted", "dropped"} <= integrity


if __name__ == "__main__":
    for line in all_lines():
        print(line)

