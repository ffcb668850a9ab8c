"""Metrics-driven autoscaling of the serving board set.

The autoscaler runs on the virtual clock: the cluster engine ticks it
at a fixed interval, publishing the fleet gauges (queue depth,
utilization, windowed p99) into a :class:`MetricsRegistry` first — the
autoscaler *only* reads those gauges plus the router's board gates, so
its decisions are a pure function of the run's observable state and
replay deterministically.

Scale-up activates standby boards (lowest fleet index first); each
pays the compiled-schedule cold start before becoming routable, so
added capacity arrives late — exactly the dynamics a real fleet fights.
Scale-down drains the highest-index active board gracefully (no new
work, in-flight completes) after a cooldown, so chaos-driven churn
(a dead rack's backlog briefly spiking the queue) does not thrash the
serving set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.router import ClusterRouter
from repro.errors import ServingError
from repro.serving.request import require_count, require_finite
from repro.trace.metrics import MetricsRegistry

#: Gauge names the engine publishes and the autoscaler consumes.
GAUGE_QUEUE_DEPTH = "cluster_queue_depth"
GAUGE_UTILIZATION = "cluster_utilization"
GAUGE_P99_S = "cluster_p99_s"
GAUGE_ACTIVE = "cluster_active_boards"
GAUGE_ROUTABLE = "cluster_routable_boards"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for the gauge-driven scaling loop.

    Attributes:
        interval_s: Virtual-clock evaluation period.
        queue_high_per_board: Queued requests per routable board above
            which the fleet scales up.
        queue_low_per_board: Queue depth per routable board below which
            (together with ``util_low``) the fleet may scale down.
        util_low: Windowed utilization below which scale-down is
            allowed.
        p99_high_s: Optional windowed-p99 trigger — breaching it scales
            up even with a shallow queue (tail-latency-driven scaling).
        p99_window_s: Completion window the p99 gauge is computed over.
        min_active: Never drain below this many active boards.
        max_active: Never activate beyond this (None = fleet size).
        max_step: Standby boards activated per tick (scale-up slew).
        cooldown_ticks: Ticks between consecutive scale-downs, before
            the run's first scale-down, and after any scale-up before
            the next scale-down.
    """

    interval_s: float = 20e-3
    queue_high_per_board: float = 4.0
    queue_low_per_board: float = 0.5
    util_low: float = 0.35
    p99_high_s: float | None = None
    p99_window_s: float = 100e-3
    min_active: int = 1
    max_active: int | None = None
    max_step: int = 4
    cooldown_ticks: int = 3

    def __post_init__(self) -> None:
        require_finite("interval_s", self.interval_s)
        if self.interval_s <= 0:
            raise ServingError(
                f"interval_s must be positive, got {self.interval_s}"
            )
        for name, value in (
            ("queue_high_per_board", self.queue_high_per_board),
            ("queue_low_per_board", self.queue_low_per_board),
            ("util_low", self.util_low),
            ("p99_window_s", self.p99_window_s),
        ):
            require_finite(name, value)
            if value < 0:
                raise ServingError(f"{name} must be >= 0, got {value}")
        if self.queue_low_per_board >= self.queue_high_per_board:
            raise ServingError(
                f"queue_low_per_board ({self.queue_low_per_board}) must "
                f"be < queue_high_per_board ({self.queue_high_per_board})"
            )
        if self.p99_high_s is not None:
            require_finite("p99_high_s", self.p99_high_s)
            if self.p99_high_s <= 0:
                raise ServingError(
                    f"p99_high_s must be positive, got {self.p99_high_s}"
                )
        require_count("min_active", self.min_active)
        if self.max_active is not None:
            # Never below min_active: the scaler could not honour both.
            require_count("max_active", self.max_active,
                          minimum=self.min_active)
        require_count("max_step", self.max_step)
        require_count("cooldown_ticks", self.cooldown_ticks, minimum=0)


class Autoscaler:
    """Tick-driven scaler reading fleet gauges, mutating board gates."""

    def __init__(self, policy: AutoscalePolicy, cold_start_s: float):
        if not math.isfinite(cold_start_s) or cold_start_s < 0:
            raise ServingError(
                f"cold_start_s must be finite and >= 0, got {cold_start_s}"
            )
        self.policy = policy
        self.cold_start_s = cold_start_s
        self.scale_ups = 0
        self.scale_downs = 0
        self.ticks = 0
        self._cooldown = policy.cooldown_ticks

    def tick(
        self,
        now_s: float,
        gauges: MetricsRegistry,
        router: ClusterRouter,
    ) -> tuple[list[str], list[str]]:
        """One evaluation: returns (activated, deactivated) board names.

        Reads :data:`GAUGE_QUEUE_DEPTH`, :data:`GAUGE_UTILIZATION` and
        :data:`GAUGE_P99_S` from ``gauges`` (the engine publishes them
        immediately before the tick).
        """
        policy = self.policy
        self.ticks += 1
        depth = gauges.gauge(GAUGE_QUEUE_DEPTH).value()
        util = gauges.gauge(GAUGE_UTILIZATION).value()
        p99 = gauges.gauge(GAUGE_P99_S).value()
        per_board = depth / max(1, router.n_routable)

        # Emergency: queued work, zero routable boards, standby capacity
        # available.  Activate regardless of thresholds (and past
        # max_active if need be) — the serving set healing itself beats
        # stranding admitted work.
        emergency = depth > 0 and router.n_routable == 0
        overloaded = emergency \
            or per_board >= policy.queue_high_per_board or (
                policy.p99_high_s is not None and p99 >= policy.p99_high_s
            )
        activated: list[str] = []
        deactivated: list[str] = []
        if overloaded:
            budget = policy.max_step
            if policy.max_active is not None:
                budget = min(budget, policy.max_active - router.n_active)
            if emergency:
                budget = max(budget, 1)
            for board in router.standby_boards()[:max(0, budget)]:
                router.activate(board.name, now_s, self.cold_start_s)
                activated.append(board.name)
            if activated:
                self.scale_ups += len(activated)
                self._cooldown = policy.cooldown_ticks
        elif (per_board <= policy.queue_low_per_board
                and util <= policy.util_low
                and router.n_active > policy.min_active):
            if self._cooldown > 0:
                self._cooldown -= 1
            else:
                # Drain the highest-index active board that is actually
                # up — deactivating a dead board frees no capacity and
                # would strand it out of the set when its rack returns.
                for board in reversed(router.boards):
                    if board.active and board.up:
                        router.deactivate(board.name)
                        deactivated.append(board.name)
                        break
                if deactivated:
                    self.scale_downs += 1
                    self._cooldown = policy.cooldown_ticks
        else:
            self._cooldown = max(0, self._cooldown - 1)
        return activated, deactivated
