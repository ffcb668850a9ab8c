"""The serving event loop: one loop for a single board and a fleet.

:class:`ClusterEngine` is the repo's only discrete-event serving loop.
It runs on a virtual clock with six event sources: the arrival trace,
batch-formation deadlines, batch completions, retry timers, an optional
:class:`~repro.faults.schedule.FaultSchedule` and autoscaler ticks.  It
reads no wall clock and no RNG, so a fixed arrival trace and fault
schedule always reproduce identical metrics bit for bit.

A request's end-to-end latency decomposes exactly as:

    queue wait (arrival → batch launch, bounded by admission + max_wait)
  + service    (Σ scheduled layer cycles / f_clk + DRAM transfer)

with the batch-formation wait folded into the queue wait.

Fault-tolerant execution:

* **Crashes** take a board out of dispatch; its in-flight batches are
  lost and their requests retried on the survivors under the
  :class:`~repro.serving.request.RetryPolicy` (capped exponential
  backoff, deadline-aware — a retry that cannot land before a request's
  deadline drops it instead).
* **Transient corruption** (SEU TPE faults, uncorrectable DRAM
  bit-flips, link glitches) poisons the struck board's in-flight
  batches — or, under a detecting integrity policy, rides to the
  batch's retirement where the ABFT checksum catches it.
* **Stuck-at TPE faults** permanently mask grid tiles: the board's
  service times inflate to its largest healthy sub-grid's compiled
  schedule.  If no sub-grid remains, the board is treated as crashed.
* **Degraded-mode admission**: while any active board is not routable
  the loop's *fault pressure* waives batch formation.
* Requests whose deadline expires in the queue are dropped with a
  reason; if no board will ever free, stranded work is dropped as
  ``no_healthy_replica``.

On top of that the fleet adds:

* **Failure domains** — the fault schedule may carry the correlated
  domain events of :mod:`repro.cluster.events` (rack power loss,
  network partition, correlated DRAM) alongside the per-board taxonomy;
  each fans out deterministically to the rack's member boards.
* **Self-healing routing** — the :class:`~repro.cluster.router.
  ClusterRouter` drains a board the instant any gate closes and
  re-admits it when the gate reopens; retried requests are *hedged*
  away from the board that just failed them when an alternative is
  free.  The router's board states are the run's health ledger: the
  report's ``health`` (``None`` without a fault schedule) is built
  from them.
* **Autoscaling** — an optional :class:`~repro.cluster.autoscale.
  Autoscaler` ticks on the virtual clock, reading the fleet gauges the
  engine publishes into a :class:`MetricsRegistry`; activated boards
  pay the compiled-schedule weight-reload cold start before serving.
* **Tenancy** — arrivals carry a tenant; admission enforces per-tenant
  quotas on top of the global bound and batch formation is fair-share
  (stride) scheduled.  Accounting is conserved *per tenant*:
  ``offered == completed + rejected + dropped`` under any fault mix.
  Each request is recorded once, where it ends, in the report's
  ``completed``/``dropped``/``rejected`` tuples; the tenant ledger is
  derived from them and checked by request id at the end of the run.

A service without a ``topology`` (a plain
:class:`~repro.serving.scheduler.ReplicaService` or
:class:`~repro.serving.scheduler.PipelineService`) is served as one rack
holding one board per replica.  A one-rack fleet gets no per-domain
health rollup and no ``cluster_rack_utilization`` gauges, since a single
rack would only repeat the fleet totals.
:class:`~repro.serving.engine.ServingEngine` is this loop with one rack,
one tenant, hedging off and no autoscaler.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Sequence

from repro.cluster.autoscale import (
    GAUGE_ACTIVE,
    GAUGE_P99_S,
    GAUGE_QUEUE_DEPTH,
    GAUGE_ROUTABLE,
    GAUGE_UTILIZATION,
    AutoscalePolicy,
    Autoscaler,
)
from repro.cluster.events import (
    CorrelatedDramFault,
    DomainFaultEvent,
    NetworkHeal,
    NetworkPartition,
    RackPowerLoss,
    RackPowerRestore,
)
from repro.cluster.report import ClusterReport, tenant_ledger
from repro.cluster.router import BoardState, ClusterRouter, Dispatch
from repro.cluster.tenancy import TenantPolicy, TenantQueueSet
from repro.cluster.topology import FleetTopology, build_fleet
from repro.errors import FaultError, ScheduleError, ServingError
from repro.faults.events import (
    DramBitFlip,
    FaultEvent,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
)
from repro.faults.schedule import FaultSchedule
from repro.integrity.policy import IntegrityPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.metrics import ServingReport, percentile
from repro.serving.request import (
    DROP_DEADLINE,
    DROP_NO_REPLICA,
    DROP_RETRY_EXHAUSTED,
    DROP_SDC,
    REJECT_CAPACITY,
    REJECT_QUOTA,
    InferenceRequest,
    RetryPolicy,
)
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer


class ClusterEngine:
    """Serve one arrival trace through a rack/board fleet.

    Args:
        service: The deployment to serve: a
            :class:`~repro.cluster.service.FleetService` (or any
            service exposing ``topology`` and ``cold_start_s`` whose
            replica names are the topology's board names), or any
            service without a ``topology`` — a
            :class:`~repro.serving.scheduler.ReplicaService`,
            :class:`~repro.serving.scheduler.PipelineService` or a
            duck-typed stand-in — which is served as one rack of
            boards named by its ``replica_names()``.
        batch_policy: Dynamic-batching knobs (fleet-wide).
        admission_policy: Global queue bound and degradation knobs.
        slo_s: Latency objective for violation accounting (finite, > 0).
        fault_schedule: Deterministic fault events — the per-board
            taxonomy plus the correlated domain events of
            :mod:`repro.cluster.events`; merge independent schedules
            with :meth:`FaultSchedule.merge`.  Every board event must
            name a board and every domain event a rack of the fleet.
        retry_policy: Backoff/attempt budget for fault retries.
        integrity_policy: How silent-corruption faults (transient TPE
            upsets, uncorrectable DRAM bit-flips) are handled.  Under
            ``OFF`` the struck batch is aborted the instant the fault
            fires.  Under a detecting policy the corruption rides to
            the batch's *retirement*, where the ABFT checksum
            verification catches it: the batch pays its full service
            time, then is dropped (``DETECT``), re-executed through the
            deadline-aware retry path (``DETECT_REEXECUTE``), or — for
            localizable accumulator upsets — corrected in place with no
            re-execution (``DETECT_CORRECT``).  Link faults keep the
            abort path under every policy: the bus protocol's own CRC
            catches those at transfer time.
        tenant_policy: Fair-share weights and per-tenant quotas.
        autoscale_policy: Enables the gauge-driven autoscaler; ``None``
            serves from the full fleet throughout.
        hedge_retries: Steer a retried request away from the board that
            failed it when any alternative board is free.
        tracer: Optional tracer.  Every retired request emits its
            lifecycle span tree (``request`` → ``queue`` / ``compute``
            / ``dram``) stamped with the virtual clock; batches land on
            their board's track, faults, failovers and fleet
            transitions as instants.  Tracing only observes timestamps
            the engine already computed.
        metrics: Optional registry; receives the ``serving_*`` and
            ``cluster_*`` counters and gauges and the request latency
            histogram (the autoscaler reads the gauges back).

    Raises:
        ServingError: for a non-finite or non-positive ``slo_s``, or a
            fleet service whose replica names are not its board names.
        FaultError: for a fault event naming an unknown board or rack.
    """

    def __init__(
        self,
        service: ReplicaService | PipelineService,
        batch_policy: BatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        slo_s: float = 10e-3,
        fault_schedule: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        integrity_policy: "IntegrityPolicy | str" = IntegrityPolicy.OFF,
        tenant_policy: TenantPolicy | None = None,
        autoscale_policy: AutoscalePolicy | None = None,
        hedge_retries: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ServingError(
                f"slo_s must be finite and positive, got {slo_s}"
            )
        names = service.replica_names()
        topology = getattr(service, "topology", None)
        if topology is None:
            topology = build_fleet(1, len(names), board_names=names)
        elif not isinstance(topology, FleetTopology):
            raise ServingError(
                f"service topology must be a FleetTopology, got "
                f"{type(topology).__name__}"
            )
        if names != list(topology.board_names):
            raise ServingError(
                "service replica names do not match the fleet topology"
            )
        if fault_schedule is not None:
            _check_fault_targets(fault_schedule, topology)
        self.service = service
        self.topology = topology
        self.cold_start_s = float(getattr(service, "cold_start_s", 0.0))
        self.batch_policy = batch_policy or BatchPolicy()
        self.admission_policy = admission_policy or AdmissionPolicy()
        self.slo_s = slo_s
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy or RetryPolicy()
        self.integrity_policy = IntegrityPolicy.parse(integrity_policy)
        self.tenant_policy = tenant_policy or TenantPolicy()
        self.autoscale_policy = autoscale_policy
        self.hedge_retries = hedge_retries
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)

    def run(self, requests: Sequence[InferenceRequest]) -> ClusterReport:
        """Serve ``requests`` (sorted by arrival) to completion; raises
        :class:`ServingError` unless the outcomes partition their ids.

        A run writes its outcome onto the requests, so each list serves
        once: requests that already carry run state (a dispatch attempt,
        a drop or a reject reason) are refused with :class:`ServingError`
        rather than silently rewriting an earlier report's requests.
        """
        if not requests:
            raise ServingError("no requests to serve")
        if any(b.arrival_s < a.arrival_s
               for a, b in zip(requests, requests[1:])):
            raise ServingError("requests are not sorted by arrival time")
        for request in requests:
            if (request.attempts or request.drop_reason is not None
                    or request.reject_reason is not None):
                raise ServingError(
                    f"request {request.request_id} already carries run "
                    f"state from an earlier run; serve fresh requests"
                )
        model = requests[0].model

        queue = TenantQueueSet(self.batch_policy, self.tenant_policy)
        admission = self.admission_policy
        router = ClusterRouter(self.topology)
        tracer = self.tracer
        metrics = self.metrics
        faults: tuple[FaultEvent, ...] = (
            self.fault_schedule.events if self.fault_schedule else ()
        )
        multi_rack = self.topology.n_racks > 1

        scaler = Autoscaler(self.autoscale_policy, self.cold_start_s) \
            if self.autoscale_policy is not None else None
        # The autoscaler reads real gauge values back, so it needs a
        # live registry even when the caller didn't ask for metrics.
        gauges = metrics if metrics.enabled else MetricsRegistry()

        now = requests[0].arrival_s
        arrival_idx = 0
        fault_idx = 0
        seq = 0
        retry_seq = itertools.count()
        inflight: list[tuple[float, int, Dispatch]] = []
        retryq: list[tuple[float, int, InferenceRequest]] = []
        aborted: set[int] = set()
        inflight_seqs: dict[int, Dispatch] = {}
        completed: list[InferenceRequest] = []
        dropped: list[InferenceRequest] = []
        rejected: list[InferenceRequest] = []
        fault_counts: dict[str, int] = {}
        policy = self.integrity_policy
        corrupt: dict[int, str] = {}  # in-flight seq -> corruption cause
        integrity_counts: dict[str, int] = {}
        n_retries = 0
        degraded_dispatches = 0
        fault_pressure = False  # some active board is not routable
        masked: dict[str, set] = {}  # board -> stuck TPE coords
        depth_integral = 0.0
        depth_max = 0
        t_start = requests[0].arrival_s
        t_last_complete = t_start

        # Fleet-specific state.
        last_failed: dict[int, str] = {}  # request_id -> failed board
        hedged_dispatches = 0
        drains = 0
        readmits = 0
        cold_starts = 0
        p99_window: deque[tuple[float, float]] = deque()
        last_busy_total = 0.0
        tick_interval = (
            self.autoscale_policy.interval_s
            if self.autoscale_policy is not None else math.inf
        )
        next_tick_s = t_start + tick_interval

        def drop(request: InferenceRequest, reason: str,
                 at_s: float) -> None:
            request.drop_reason = reason
            dropped.append(request)
            metrics.counter(
                "serving_requests_dropped", "requests dropped, by reason"
            ).inc(reason=reason)
            tracer.add_span(
                "request", request.arrival_s, max(at_s, request.arrival_s),
                track="requests", id=request.request_id, status="dropped",
                reason=reason, attempts=request.attempts,
            )

        def retry_or_drop(request: InferenceRequest, at_s: float) -> None:
            """Requeue a fault-struck request, or drop it."""
            nonlocal n_retries
            if request.attempts >= self.retry_policy.max_attempts:
                drop(request, DROP_RETRY_EXHAUSTED, at_s)
                return
            retry_at = at_s + self.retry_policy.backoff_s(request.attempts)
            if retry_at >= request.deadline_at_s:
                drop(request, DROP_DEADLINE, at_s)
                return
            n_retries += 1
            metrics.counter(
                "serving_retries", "fault-driven retry dispatches"
            ).inc()
            tracer.instant(
                "failover.retry", at=at_s, track="engine",
                id=request.request_id, retry_at_s=retry_at,
            )
            heapq.heappush(retryq, (retry_at, next(retry_seq), request))

        def abort_inflight(board_name: str, at_s: float) -> None:
            """Poison every batch in flight on ``board_name``."""
            for seq_id, dispatch in list(inflight_seqs.items()):
                if dispatch.replica != board_name or seq_id in aborted:
                    continue
                aborted.add(seq_id)
                del inflight_seqs[seq_id]
                corrupt.pop(seq_id, None)
                for request in dispatch.batch.requests:
                    last_failed[request.request_id] = board_name
                    retry_or_drop(request, at_s)

        def mark_corrupt(board_name: str, cause: str) -> None:
            """Silently corrupt the batches in flight on ``board_name``."""
            for seq_id, dispatch in inflight_seqs.items():
                if dispatch.replica != board_name:
                    continue
                corrupt[seq_id] = (
                    cause if seq_id not in corrupt else "multiple"
                )

        def drain_board(board: BoardState, went_down: bool, at_s: float,
                        cause: str) -> None:
            """A gate closed: abort in-flight work, trace the outage."""
            nonlocal drains
            drains += 1
            abort_inflight(board.name, at_s)
            if went_down:
                tracer.instant("health.down", at=at_s, track=board.name)
            tracer.instant(
                "cluster.drain", at=at_s, track=board.name, cause=cause,
            )
            metrics.counter(
                "cluster_drains", "board drain transitions, by cause"
            ).inc(cause=cause)

        def readmit_board(board: BoardState, repair_s: float | None,
                          at_s: float, cause: str) -> None:
            """A gate reopened: trace the repair if the board is back up."""
            nonlocal readmits
            readmits += 1
            if repair_s is not None:
                tracer.instant(
                    "health.up", at=at_s, track=board.name, repair_s=repair_s,
                )
            tracer.instant(
                "cluster.readmit", at=at_s, track=board.name, cause=cause,
                warm_at_s=board.warm_at_s,
            )
            metrics.counter(
                "cluster_readmits", "board re-admissions, by cause"
            ).inc(cause=cause)

        def apply_board_dram(event: DramBitFlip) -> None:
            if not event.correctable:
                # Escaped ECC: the board stays up but its results are
                # corrupt; only an integrity policy catches them.
                router.by_name(event.replica).dram_uncorrectable += 1
                tracer.instant(
                    "health.sdc_exposure", at=event.at_s,
                    track=event.replica,
                )
                if policy.detects:
                    mark_corrupt(event.replica, "dram_uncorrectable")
                else:
                    abort_inflight(event.replica, event.at_s)

        def integrity_outcome(kind: str, cause: str, dispatch: Dispatch,
                              at_s: float, /, **trace_args) -> None:
            """Count one ABFT outcome of a retired batch; a drop is traced
            by its requests' spans, every other kind by an instant."""
            integrity_counts[kind] = integrity_counts.get(kind, 0) + 1
            metrics.counter(
                "integrity_events", "ABFT verification outcomes"
            ).inc(kind=kind, cause=cause)
            if kind != "dropped":
                tracer.instant(
                    f"integrity.{kind}", at=at_s, track=dispatch.replica,
                    **trace_args,
                )

        def crash_board(board_name: str, at_s: float) -> None:
            """Close a healthy board's health gate, losing its work."""
            if router.by_name(board_name).healthy:
                abort_inflight(board_name, at_s)
                if router.crash(board_name, at_s):
                    tracer.instant("health.down", at=at_s, track=board_name)

        def apply_fault(event: FaultEvent) -> None:
            nonlocal cold_starts, fault_pressure
            fault_counts[event.kind] = fault_counts.get(event.kind, 0) + 1
            metrics.counter(
                "faults_injected", "fault events applied, by kind"
            ).inc(kind=event.kind)
            tracer.instant(
                f"fault.{event.kind}", at=event.at_s, track=event.replica,
            )
            if isinstance(event, RackPowerLoss):
                for board, went_down in router.power_down_rack(
                        event.domain, event.at_s):
                    drain_board(board, went_down, event.at_s, event.kind)
            elif isinstance(event, RackPowerRestore):
                for board, repair_s in router.power_up_rack(
                        event.domain, event.at_s, self.cold_start_s):
                    cold_starts += 1
                    readmit_board(board, repair_s, event.at_s, event.kind)
            elif isinstance(event, NetworkPartition):
                for board, went_down in router.partition_rack(
                        event.domain, event.at_s):
                    drain_board(board, went_down, event.at_s, event.kind)
            elif isinstance(event, NetworkHeal):
                for board, repair_s in router.heal_rack(
                        event.domain, event.at_s):
                    readmit_board(board, repair_s, event.at_s, event.kind)
            elif isinstance(event, CorrelatedDramFault):
                members = [
                    b.name for b in router.rack_boards(event.domain)
                ]
                for flip in event.expand(members):
                    apply_board_dram(flip)
            elif isinstance(event, ReplicaCrash):
                crash_board(event.replica, event.at_s)
            elif isinstance(event, ReplicaRecovery):
                repair_s = router.recover(event.replica, event.at_s)
                if repair_s is not None:
                    tracer.instant(
                        "health.up", at=event.at_s, track=event.replica,
                        repair_s=repair_s,
                    )
            elif isinstance(event, ReplicaSlowdown):
                board = router.by_name(event.replica)
                if board.healthy:
                    board.slow_factor = event.factor
                    board.slowdowns += 1
                    tracer.instant(
                        "health.slowdown", at=event.at_s,
                        track=event.replica,
                    )
            elif isinstance(event, TPEFault):
                if event.stuck:
                    coords = masked.setdefault(event.replica, set())
                    coords.add(event.coord)
                    board = router.by_name(event.replica)
                    try:
                        board.degrade_factor = (
                            self.service.degrade_slowdown(
                                frozenset(coords),
                                self.batch_policy.max_batch,
                            )
                        )
                    except (FaultError, ScheduleError):
                        # No healthy (schedulable) sub-grid left: the
                        # overlay is gone.
                        crash_board(event.replica, event.at_s)
                elif policy.detects:
                    mark_corrupt(event.replica, "tpe_transient")
                else:
                    abort_inflight(event.replica, event.at_s)
            elif isinstance(event, DramBitFlip):
                apply_board_dram(event)
            elif isinstance(event, LinkFault):
                abort_inflight(event.replica, event.at_s)
            fault_pressure = router.n_routable < router.n_active

        def publish_gauges(at_s: float) -> None:
            """Refresh the fleet gauges the autoscaler consumes."""
            nonlocal last_busy_total
            gauges.gauge(
                GAUGE_QUEUE_DEPTH, "queued requests across all tenants"
            ).set(queue.depth)
            busy_total = sum(b.busy_s for b in router.boards)
            denom = tick_interval * max(1, router.n_routable)
            gauges.gauge(
                GAUGE_UTILIZATION,
                "fleet busy fraction over the last autoscale interval",
            ).set(min(1.0, max(0.0, (busy_total - last_busy_total) / denom)))
            last_busy_total = busy_total
            window_s = self.autoscale_policy.p99_window_s \
                if self.autoscale_policy is not None else math.inf
            while p99_window and p99_window[0][0] < at_s - window_s:
                p99_window.popleft()
            gauges.gauge(
                GAUGE_P99_S, "p99 latency over the completion window"
            ).set(
                percentile([lat for _, lat in p99_window], 99)
                if p99_window else 0.0
            )
            gauges.gauge(GAUGE_ACTIVE, "autoscaled-in boards").set(
                router.n_active
            )
            gauges.gauge(GAUGE_ROUTABLE, "boards eligible for work").set(
                router.n_routable
            )

        def autoscale_tick(at_s: float) -> None:
            nonlocal cold_starts, fault_pressure
            assert scaler is not None
            publish_gauges(at_s)
            activated, deactivated = scaler.tick(at_s, gauges, router)
            for name in activated:
                cold_starts += 1
                tracer.instant(
                    "cluster.scale_up", at=at_s, track=name,
                    warm_at_s=at_s + self.cold_start_s,
                )
                metrics.counter(
                    "cluster_scale_events", "autoscaler actions, by kind"
                ).inc(kind="up")
            for name in deactivated:
                tracer.instant("cluster.scale_down", at=at_s, track=name)
                metrics.counter(
                    "cluster_scale_events", "autoscaler actions, by kind"
                ).inc(kind="down")
            fault_pressure = router.n_routable < router.n_active

        while (arrival_idx < len(requests) or retryq or len(queue)
               or inflight_seqs):
            # Apply fault events due at the current instant first: a
            # rack dying at t must not receive work dispatched at t.
            while fault_idx < len(faults) and faults[fault_idx].at_s <= now:
                apply_fault(faults[fault_idx])
                fault_idx += 1

            # Autoscaler evaluations due at the current instant (after
            # faults: the tick sees the post-fault fleet state).
            while scaler is not None and next_tick_s <= now:
                autoscale_tick(next_tick_s)
                next_tick_s += tick_interval

            # Requeue retries that have served their backoff.
            while retryq and retryq[0][0] <= now:
                _, _, request = heapq.heappop(retryq)
                queue.push(request)
                depth_max = max(depth_max, queue.depth)

            # Admit every arrival due at the current instant, so a burst
            # landing at one timestamp batches together.
            while (arrival_idx < len(requests)
                   and requests[arrival_idx].arrival_s <= now):
                request = requests[arrival_idx]
                arrival_idx += 1
                tenant = request.tenant
                quota = self.tenant_policy.quota(tenant)
                if quota is not None and queue.tenant_depth(tenant) >= quota:
                    request.reject_reason = REJECT_QUOTA
                    rejected.append(request)
                    metrics.counter(
                        "cluster_quota_rejections",
                        "arrivals refused by tenant quota",
                    ).inc(tenant=tenant)
                elif admission.admit(queue.depth):
                    queue.push(request)
                    depth_max = max(depth_max, queue.depth)
                else:
                    request.reject_reason = REJECT_CAPACITY
                    rejected.append(request)

            # Shed queued requests whose deadline has already passed.
            for request in queue.expire(now):
                drop(request, DROP_DEADLINE, now)

            # Launch batches while a board is free and the policy fires.
            while True:
                degraded = admission.degraded(queue.depth, fault_pressure)
                if not queue.ready(now, degraded=degraded):
                    break
                board = router.free_board(now)
                if board is None:
                    break
                if degraded:
                    degraded_dispatches += 1
                batch = queue.pop(now)
                avoid = frozenset(
                    last_failed[r.request_id] for r in batch.requests
                    if r.request_id in last_failed
                ) if self.hedge_retries else frozenset()
                if avoid:
                    board = router.free_board(now, avoid)
                    assert board is not None  # a free board existed above
                if avoid and board.name not in avoid:
                    hedged_dispatches += 1
                    tracer.instant(
                        "cluster.hedged", at=now, track=board.name,
                        avoided=",".join(sorted(avoid)),
                    )
                factor = board.service_factor
                dispatch = router.dispatch(
                    board, batch, now,
                    occupancy_s=(
                        self.service.occupancy_s(batch.size) * factor
                    ),
                    latency_s=self.service.latency_s(batch.size) * factor,
                )
                for req in batch.requests:
                    req.dispatch_s = now
                    req.batch_size = batch.size
                    req.replica = dispatch.replica
                    req.attempts += 1
                seq += 1
                inflight_seqs[seq] = dispatch
                heapq.heappush(
                    inflight, (dispatch.complete_s, seq, dispatch)
                )

            # Advance the clock to the next event.
            candidates = []
            if arrival_idx < len(requests):
                candidates.append(requests[arrival_idx].arrival_s)
            if retryq:
                candidates.append(retryq[0][0])
            if inflight_seqs:
                candidates.append(inflight[0][0])
            if fault_idx < len(faults):
                candidates.append(faults[fault_idx].at_s)
            if len(queue):
                next_free = router.next_free_s()
                if math.isfinite(next_free):
                    candidates.append(
                        max(queue.next_deadline(), next_free)
                    )
                expiry = queue.next_expiry_s()
                if math.isfinite(expiry):
                    candidates.append(expiry)
            if scaler is not None and (
                candidates or (len(queue) and router.standby_boards())
            ):
                # A tick is only worth waiting for when some other event
                # will eventually fire, or the scaler could rescue
                # stranded work by activating a standby board; otherwise
                # ticking forever would spin the loop.
                candidates.append(next_tick_s)
            if not candidates:
                # No board will ever free and no event is pending:
                # strand-drop whatever is still queued or backing off.
                for request in queue.pop_all():
                    drop(request, DROP_NO_REPLICA, now)
                while retryq:
                    _, _, request = heapq.heappop(retryq)
                    drop(request, DROP_NO_REPLICA, now)
                break
            next_t = max(min(candidates), now)
            depth_integral += queue.depth * (next_t - now)
            now = next_t

            # Retire completions due at the new instant.
            while inflight and inflight[0][0] <= now:
                done_s, seq_id, dispatch = heapq.heappop(inflight)
                if seq_id in aborted:
                    aborted.discard(seq_id)
                    continue
                del inflight_seqs[seq_id]
                cause = corrupt.pop(seq_id, None)
                if cause is not None:
                    # The batch's ABFT verification fails here, after it
                    # paid its full service time.
                    integrity_outcome(
                        "sdc_detected", cause, dispatch, done_s,
                        cause=cause, size=dispatch.batch.size,
                    )
                    if policy.corrects and cause == "tpe_transient":
                        # A lone accumulator upset: the row/column
                        # syndromes localize it and the repaired output
                        # re-verifies — serve the batch normally.
                        integrity_outcome("corrected", cause, dispatch,
                                          done_s)
                    elif policy.reexecutes:
                        integrity_outcome(
                            "reexecuted", cause, dispatch, done_s,
                            size=dispatch.batch.size,
                        )
                        for req in dispatch.batch.requests:
                            last_failed[req.request_id] = dispatch.replica
                            retry_or_drop(req, done_s)
                        continue
                    else:
                        integrity_outcome("dropped", cause, dispatch, done_s)
                        for req in dispatch.batch.requests:
                            drop(req, DROP_SDC, done_s)
                        continue
                for req in dispatch.batch.requests:
                    req.complete_s = done_s
                    completed.append(req)
                    last_failed.pop(req.request_id, None)
                    if scaler is not None:
                        p99_window.append((done_s, done_s - req.arrival_s))
                    metrics.counter(
                        "serving_requests_completed", "requests served"
                    ).inc()
                    metrics.histogram(
                        "serving_request_latency_s",
                        "end-to-end request latency, seconds",
                    ).observe(done_s - req.arrival_s)
                if tracer.enabled:
                    trace_retired_batch(
                        self.service, tracer, dispatch, done_s
                    )
                t_last_complete = max(t_last_complete, done_s)

        makespan = t_last_complete - t_start
        if metrics.enabled:
            for name, util in router.utilization(makespan).items():
                metrics.gauge(
                    "serving_replica_utilization",
                    "busy fraction over the makespan",
                ).set(util, replica=name)
            if multi_rack:
                for rack, util in router.rack_utilization(makespan).items():
                    metrics.gauge(
                        "cluster_rack_utilization",
                        "mean member busy fraction over the makespan",
                    ).set(util, rack=rack)
            metrics.gauge(
                "serving_queue_depth_max", "peak batcher queue depth"
            ).set(depth_max)
            metrics.counter(
                "serving_requests_rejected", "arrivals refused by admission"
            ).inc(len(rejected))
        core = ServingReport(
            model=model,
            completed=tuple(completed),
            slo_s=self.slo_s,
            makespan_s=makespan,
            queue_depth_time_avg=(
                depth_integral / makespan if makespan > 0 else 0.0
            ),
            queue_depth_max=depth_max,
            utilization=router.utilization(makespan),
            degraded_dispatches=degraded_dispatches,
            cache_stats=self.service.cache_stats(),
            dropped=tuple(dropped),
            rejected=tuple(rejected),
            n_retries=n_retries,
            fault_counts=dict(sorted(fault_counts.items())),
            integrity_policy=policy.value if policy.detects else None,
            integrity_counts=dict(sorted(integrity_counts.items())),
            health=(
                router.health_report(t_last_complete, t_start)
                if faults else None
            ),
        )
        return ClusterReport(
            core=core,
            t_start_s=t_start,
            n_racks=self.topology.n_racks,
            n_boards=self.topology.n_boards,
            per_tenant=tenant_ledger(requests, core),
            scale_ups=scaler.scale_ups if scaler else 0,
            scale_downs=scaler.scale_downs if scaler else 0,
            autoscale_ticks=scaler.ticks if scaler else 0,
            hedged_dispatches=hedged_dispatches,
            drains=drains,
            readmits=readmits,
            cold_starts=cold_starts,
            cold_start_s=self.cold_start_s,
            rack_utilization=router.rack_utilization(makespan),
        )


def _check_fault_targets(schedule: FaultSchedule,
                         topology: FleetTopology) -> None:
    """Check every event names a board (or, for a domain event, a rack)
    of ``topology``, before a run applies any of them.

    Raises:
        FaultError: naming the first event with an unknown target.
    """
    racks = set(topology.rack_names)
    boards = set(topology.board_names)
    for event in schedule.events:
        if isinstance(event, DomainFaultEvent):
            if event.replica not in racks:
                raise FaultError(
                    f"{event.kind} event names an unknown rack",
                    replica=event.replica, at_s=event.at_s,
                )
        elif event.replica not in boards:
            raise FaultError(
                f"{event.kind} event names an unknown board",
                replica=event.replica, at_s=event.at_s,
            )


def trace_retired_batch(
    service: ReplicaService | PipelineService,
    tracer: Tracer,
    dispatch: Dispatch,
    done_s: float,
) -> None:
    """Emit a retired batch's span and its requests' lifecycle trees.

    Timestamps are the exact virtual-clock instants the engine
    already stamped on the requests, so every ``request`` root
    span's duration *is* that request's end-to-end latency, and the
    ``queue`` / ``compute`` / ``dram`` children partition it.  The
    compute/DRAM boundary applies the service model's healthy
    compute fraction to the batch's actual (possibly slowdown- or
    degrade-inflated) service interval; a service without
    ``latency_split`` counts the whole interval as compute.
    """
    batch = dispatch.batch
    tracer.add_span(
        "batch", dispatch.start_s, done_s, track=dispatch.replica,
        size=batch.size,
    )
    split = getattr(service, "latency_split", None)
    compute_s, transfer_s = split(batch.size) if split else (1.0, 0.0)
    total = compute_s + transfer_s
    frac = compute_s / total if total > 0 else 1.0
    for req in batch.requests:
        root = tracer.add_span(
            "request", req.arrival_s, done_s, track="requests",
            id=req.request_id, status="completed",
            replica=dispatch.replica, batch=batch.size,
            attempts=req.attempts,
        )
        dispatch_s = req.dispatch_s
        assert dispatch_s is not None
        tracer.add_span(
            "queue", req.arrival_s, dispatch_s, parent=root,
            track="requests", id=req.request_id,
        )
        # min() guards the last-ulp case where frac == 1.0 and the
        # add rounds a hair past done_s.
        compute_end = min(
            dispatch_s + (done_s - dispatch_s) * frac, done_s
        )
        tracer.add_span(
            "compute", dispatch_s, compute_end, parent=root,
            track="requests", id=req.request_id,
        )
        tracer.add_span(
            "dram", compute_end, done_s, parent=root,
            track="requests", id=req.request_id,
        )
