"""Serving metrics: throughput, tail latency, utilization, SLO tracking.

Percentiles use the nearest-rank method (deterministic, no
interpolation), matching how serving dashboards usually define p99: the
smallest observed latency that at least 99% of requests met.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.cache import CacheStats
from repro.errors import ServingError
from repro.faults.monitor import HealthReport
from repro.serving.request import InferenceRequest


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        raise ServingError("percentile of empty sample")
    if not 0.0 <= q <= 100.0:
        raise ServingError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = int(max(1, -(-len(ordered) * q // 100)))  # ceil(n * q / 100)
    # The float ceil can land one past the last sample on tiny n (e.g.
    # p99 of 2 values); a high percentile clamps to the max, never past.
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving run.

    Attributes:
        model: Workload name.
        completed: Every request that finished, in completion order.
        slo_s: Latency objective the run was measured against.
        makespan_s: Virtual time from first arrival to last completion.
        queue_depth_time_avg: Time-weighted mean batcher queue depth.
        queue_depth_max: Peak batcher queue depth.
        utilization: Busy fraction per replica over the makespan.
        degraded_dispatches: Batches launched under the degraded
            (formation-wait waived) admission regime.
        cache_stats: Schedule-cache counters accumulated by the run.
        dropped: Requests dropped in flight or in queue (expired
            deadline, exhausted retries, no healthy replica), each
            carrying its ``drop_reason``.
        rejected: Arrivals turned away by admission control, each
            carrying its ``reject_reason``.  Every offered request ends
            in exactly one of ``completed``, ``dropped`` and ``rejected``.
        n_retries: Retry dispatches performed after faults.
        fault_counts: Injected fault events by kind (empty when the run
            had no fault schedule).
        integrity_policy: Active ABFT policy value (``"detect"``,
            ``"detect-reexecute"``, ``"detect-correct"``); ``None``
            when integrity checking was off.
        integrity_counts: ABFT verification outcomes, in batches:
            ``sdc_detected`` (failed verifications), partitioned
            exactly into ``corrected`` + ``reexecuted`` + ``dropped``.
        health: Replica health summary (None when no fault schedule).
    """

    model: str
    completed: tuple[InferenceRequest, ...]
    slo_s: float
    makespan_s: float
    queue_depth_time_avg: float
    queue_depth_max: int
    utilization: dict[str, float] = field(default_factory=dict)
    degraded_dispatches: int = 0
    cache_stats: CacheStats | None = None
    dropped: tuple[InferenceRequest, ...] = ()
    rejected: tuple[InferenceRequest, ...] = ()
    n_retries: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    integrity_policy: str | None = None
    integrity_counts: dict[str, int] = field(default_factory=dict)
    health: HealthReport | None = None

    # ------------------------------------------------------------------ #
    @property
    def n_completed(self) -> int:
        return len(self.completed)

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def n_offered(self) -> int:
        return self.n_completed + self.n_rejected + self.n_dropped

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Drop count per reason, sorted by reason."""
        reasons: dict[str, int] = {}
        for request in self.dropped:
            key = request.drop_reason or "unknown"
            reasons[key] = reasons.get(key, 0) + 1
        return dict(sorted(reasons.items()))

    @property
    def drop_rate(self) -> float:
        return self.n_dropped / self.n_offered if self.n_offered else 0.0

    @property
    def availability(self) -> float:
        """Share of offered requests that completed (request-level)."""
        if not self.n_offered:
            return 1.0
        return self.n_completed / self.n_offered

    @property
    def throughput_rps(self) -> float:
        """Sustained completions per virtual second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.n_completed / self.makespan_s

    @property
    def latencies_s(self) -> list[float]:
        return [r.latency_s for r in self.completed]

    def latency_percentile_s(self, q: float) -> float:
        """Nearest-rank latency percentile; 0.0 over an empty window."""
        lat = self.latencies_s
        return percentile(lat, q) if lat else 0.0

    @property
    def p50_s(self) -> float:
        return self.latency_percentile_s(50)

    @property
    def p95_s(self) -> float:
        return self.latency_percentile_s(95)

    @property
    def p99_s(self) -> float:
        return self.latency_percentile_s(99)

    @property
    def mean_latency_s(self) -> float:
        lat = self.latencies_s
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def mean_queue_wait_s(self) -> float:
        waits = [r.queue_wait_s for r in self.completed]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.completed:
            return 0.0
        # Each request carries its batch's size; averaging per *batch*
        # weighs a size-1 straggler equally with a full batch.
        batches: dict[tuple[str, float], int] = {}
        for r in self.completed:
            assert r.dispatch_s is not None
            batches[(r.replica, r.dispatch_s)] = r.batch_size
        return sum(batches.values()) / len(batches)

    @property
    def slo_violations(self) -> int:
        """Completed requests over the SLO plus every rejection and drop."""
        late = sum(1 for lat in self.latencies_s if lat > self.slo_s)
        return late + self.n_rejected + self.n_dropped

    @property
    def slo_violation_rate(self) -> float:
        if not self.n_offered:
            return 0.0
        return self.slo_violations / self.n_offered

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return sum(self.utilization.values()) / len(self.utilization)

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Multi-line report table."""
        lines = [
            f"serving report — {self.model}",
            f"  offered        : {self.n_offered} requests "
            f"({self.n_rejected} rejected, "
            f"{self.n_rejected / max(self.n_offered, 1):.1%})",
            f"  throughput     : {self.throughput_rps:,.1f} req/s sustained "
            f"over {self.makespan_s * 1e3:,.2f} ms",
        ]
        if self.completed:
            lines += [
                f"  latency        : p50 {self.p50_s * 1e3:8.3f} ms | "
                f"p95 {self.p95_s * 1e3:8.3f} ms | "
                f"p99 {self.p99_s * 1e3:8.3f} ms | "
                f"mean {self.mean_latency_s * 1e3:8.3f} ms",
                f"  queue wait     : mean {self.mean_queue_wait_s * 1e3:.3f} "
                f"ms; depth avg {self.queue_depth_time_avg:.2f} / "
                f"max {self.queue_depth_max}",
                f"  batching       : mean batch {self.mean_batch_size:.2f}, "
                f"{self.degraded_dispatches} degraded dispatches",
            ]
        lines.append(
            f"  SLO {self.slo_s * 1e3:6.2f} ms   : "
            f"{self.slo_violations} violations "
            f"({self.slo_violation_rate:.2%} of offered)"
        )
        if self.dropped or self.fault_counts or self.health is not None:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in self.drop_reasons.items()
            )
            lines.append(
                f"  availability   : {self.availability:.2%} "
                f"({self.n_dropped} dropped"
                + (f": {reasons}" if reasons else "")
                + f", {self.n_retries} retries)"
            )
            if self.fault_counts:
                injected = ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.fault_counts.items())
                )
                lines.append(f"  faults         : {injected}")
            if self.integrity_policy is not None:
                outcomes = ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.integrity_counts.items())
                ) or "no SDC detected"
                lines.append(
                    f"  integrity      : policy={self.integrity_policy}; "
                    f"{outcomes}"
                )
            if self.health is not None:
                lines.append(f"  health         : {self.health.describe()}")
        for name, util in self.utilization.items():
            lines.append(f"  util {name:14s}: {util:7.1%}")
        if self.cache_stats is not None:
            lines.append(f"  schedule cache : {self.cache_stats.describe()}")
        return "\n".join(lines)
