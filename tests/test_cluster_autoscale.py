"""Gauge-driven autoscaler: thresholds, cooldown, emergency rescue."""

import math

import pytest

from repro.cluster import AutoscalePolicy, Autoscaler, ClusterRouter, build_fleet
from repro.cluster.autoscale import (
    GAUGE_P99_S,
    GAUGE_QUEUE_DEPTH,
    GAUGE_UTILIZATION,
)
from repro.errors import ServingError
from repro.trace.metrics import MetricsRegistry


def gauges(depth=0.0, util=0.0, p99=0.0) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.gauge(GAUGE_QUEUE_DEPTH).set(depth)
    registry.gauge(GAUGE_UTILIZATION).set(util)
    registry.gauge(GAUGE_P99_S).set(p99)
    return registry


def fleet_router(n_boards=4, active=None) -> ClusterRouter:
    router = ClusterRouter(build_fleet(1, n_boards))
    if active is not None:
        for board in router.boards[active:]:
            router.deactivate(board.name)
    return router


class TestAutoscalePolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(interval_s=0.0),
        dict(interval_s=math.nan),
        dict(queue_high_per_board=-1.0),
        dict(queue_low_per_board=4.0, queue_high_per_board=4.0),
        dict(p99_high_s=0.0),
        dict(min_active=0),
        dict(min_active=4, max_active=2),
        dict(max_step=0),
        dict(cooldown_ticks=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ServingError):
            AutoscalePolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(min_active=math.nan),
        dict(max_active=math.nan),
        dict(max_step=1.5),
        dict(cooldown_ticks=math.nan),
    ])
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(ServingError, match="must be an integer"):
            AutoscalePolicy(**kwargs)

    def test_defaults_valid(self):
        AutoscalePolicy()


class TestScaleUp:
    POLICY = AutoscalePolicy(queue_high_per_board=4.0, max_step=2)

    def test_deep_queue_activates_standby(self):
        router = fleet_router(4, active=1)
        scaler = Autoscaler(self.POLICY, cold_start_s=5e-3)
        activated, deactivated = scaler.tick(
            1.0, gauges(depth=10), router)
        assert activated == ["rack0/b1", "rack0/b2"]  # max_step = 2
        assert deactivated == []
        assert scaler.scale_ups == 2
        # Activation pays the cold start before the board is placeable.
        board = router.by_name("rack0/b1")
        assert board.active
        assert board.warm_at_s == pytest.approx(1.0 + 5e-3)
        assert router.free_board(1.0) is router.by_name("rack0/b0")
        assert router.free_board(1.0 + 5e-3).name in \
            ("rack0/b0", "rack0/b1")

    def test_shallow_queue_is_steady(self):
        router = fleet_router(4, active=1)
        scaler = Autoscaler(self.POLICY, cold_start_s=0.0)
        assert scaler.tick(1.0, gauges(depth=2), router) == ([], [])

    def test_p99_breach_scales_up(self):
        policy = AutoscalePolicy(p99_high_s=10e-3, max_step=1)
        router = fleet_router(3, active=1)
        scaler = Autoscaler(policy, cold_start_s=0.0)
        activated, _ = scaler.tick(
            1.0, gauges(depth=1, p99=20e-3), router)
        assert activated == ["rack0/b1"]

    def test_max_active_caps_growth(self):
        policy = AutoscalePolicy(max_step=8, max_active=2)
        router = fleet_router(4, active=1)
        scaler = Autoscaler(policy, cold_start_s=0.0)
        activated, _ = scaler.tick(1.0, gauges(depth=100), router)
        assert len(activated) == 1
        assert router.n_active == 2

    def test_emergency_rescues_stranded_queue(self):
        # Zero routable boards + queued work must activate standby even
        # past max_active — otherwise the queue is stranded forever.
        policy = AutoscalePolicy(max_active=1)
        router = fleet_router(3, active=1)
        router.crash("rack0/b0", 1.0)
        assert router.n_routable == 0
        scaler = Autoscaler(policy, cold_start_s=0.0)
        activated, _ = scaler.tick(1.0, gauges(depth=1), router)
        assert activated == ["rack0/b1"]

    def test_dead_standby_not_activated(self):
        router = fleet_router(3, active=1)
        router.power_down_rack("rack0", 1.0)
        scaler = Autoscaler(self.POLICY, cold_start_s=0.0)
        assert scaler.tick(1.0, gauges(depth=50), router) == ([], [])


class TestScaleDown:
    POLICY = AutoscalePolicy(
        queue_low_per_board=0.5, util_low=0.35, min_active=1,
        cooldown_ticks=2,
    )

    def test_idle_fleet_drains_after_cooldown(self):
        router = fleet_router(3)
        scaler = Autoscaler(self.POLICY, cold_start_s=0.0)
        idle = gauges(depth=0, util=0.1)
        assert scaler.tick(1.0, idle, router) == ([], [])  # cooldown 2->1
        assert scaler.tick(2.0, idle, router) == ([], [])  # cooldown 1->0
        activated, deactivated = scaler.tick(3.0, idle, router)
        assert (activated, deactivated) == ([], ["rack0/b2"])
        assert not router.by_name("rack0/b2").active
        assert scaler.scale_downs == 1
        # Cooldown re-arms: the next tick must not drain again.
        assert scaler.tick(4.0, idle, router) == ([], [])

    def test_min_active_floor(self):
        router = fleet_router(2, active=1)
        scaler = Autoscaler(self.POLICY, cold_start_s=0.0)
        idle = gauges(depth=0, util=0.0)
        for t in range(5):
            assert scaler.tick(float(t), idle, router) == ([], [])
        assert router.n_active == 1

    def test_busy_fleet_not_drained(self):
        router = fleet_router(3)
        scaler = Autoscaler(self.POLICY, cold_start_s=0.0)
        busy = gauges(depth=1, util=0.9)
        for t in range(5):
            assert scaler.tick(float(t), busy, router) == ([], [])

    def test_drains_highest_index_up_board(self):
        router = fleet_router(3)
        router.crash("rack0/b2", 0.0)  # dead board must not be "drained"
        scaler = Autoscaler(
            AutoscalePolicy(cooldown_ticks=0), cold_start_s=0.0)
        _, deactivated = scaler.tick(1.0, gauges(), router)
        assert deactivated == ["rack0/b1"]

    def test_invalid_cold_start_rejected(self):
        with pytest.raises(ServingError):
            Autoscaler(self.POLICY, cold_start_s=-1.0)
        with pytest.raises(ServingError):
            Autoscaler(self.POLICY, cold_start_s=math.nan)
