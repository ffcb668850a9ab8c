"""Fault-aware compilation and replica health accounting."""

import pytest

from repro.cluster import ClusterRouter, build_fleet
from repro.errors import FaultError, ServingError
from repro.faults import (
    FaultMask,
    degraded_compile,
)
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network


@pytest.fixture
def net():
    return Network(
        name="mmnet", application="test",
        layers=(
            MatMulLayer("fc1", in_features=48, out_features=24),
            MatMulLayer("fc2", in_features=24, out_features=8),
        ),
    )


class TestDegradedCompile:
    def test_empty_mask_is_identity(self, net, tiny_config):
        report = degraded_compile(net, tiny_config, FaultMask())
        assert report.degraded == tiny_config
        assert report.slowdown == 1.0
        assert report.throughput_factor == 1.0
        assert report.efficiency_delta == 0.0

    def test_masked_grid_slows_down(self, net, tiny_config):
        report = degraded_compile(
            net, tiny_config, FaultMask.from_coords([(0, 0, 0)])
        )
        assert report.degraded.n_tpe == 8
        assert report.n_masked == 1
        assert report.degraded_cycles >= report.healthy_cycles
        assert report.slowdown >= 1.0
        assert 0.0 < report.throughput_factor <= 1.0

    def test_graceful_not_cliff(self, net, small_config):
        """Losing 1/48 tiles must not cost more than the lost sub-grid
        share: throughput retention >= TPE retention."""
        report = degraded_compile(
            net, small_config, FaultMask.from_coords([(0, 0, 0)])
        )
        assert report.tpe_fraction_kept >= 0.75
        assert report.throughput_factor >= report.tpe_fraction_kept * 0.9

    def test_report_identities(self, net, tiny_config):
        report = degraded_compile(
            net, tiny_config, FaultMask.from_coords([(0, 0, 0), (1, 1, 2)])
        )
        assert report.masked_fraction == pytest.approx(2 / 12)
        assert report.slowdown * report.throughput_factor == \
            pytest.approx(1.0)
        assert report.healthy_efficiency == pytest.approx(
            report.total_maccs
            / (report.healthy_cycles * tiny_config.n_tpe)
        )

    def test_describe_mentions_grids(self, net, tiny_config):
        report = degraded_compile(
            net, tiny_config, FaultMask.from_coords([(0, 0, 0)])
        )
        text = report.describe()
        assert "3x2x2" in text
        assert "mmnet" in text

    def test_deterministic(self, net, tiny_config):
        mask = FaultMask.from_coords([(0, 1, 1)])
        a = degraded_compile(net, tiny_config, mask)
        b = degraded_compile(net, tiny_config, mask)
        assert a == b


def ledger(*names: str) -> ClusterRouter:
    """A one-rack router over boards ``names``, for its health ledger."""
    return ClusterRouter(build_fleet(1, len(names), board_names=names))


class TestHealthMonitor:
    """Health monitoring on the router's board ledger."""

    def test_mttr_over_completed_intervals(self):
        router = ledger("a", "b")
        router.crash("a", 1.0)
        router.recover("a", 1.5)
        router.crash("b", 2.0)
        router.recover("b", 2.1)
        report = router.health_report(end_s=3.0, start_s=0.0)
        assert report.mttr_s == pytest.approx(0.3)  # mean(0.5, 0.1)
        assert report.downtime_s == pytest.approx(0.6)
        assert report.crashes == 2
        assert report.recoveries == 2

    def test_unrecovered_crash_counts_to_end(self):
        router = ledger("a")
        router.crash("a", 1.0)
        report = router.health_report(end_s=4.0, start_s=0.0)
        assert report.mttr_s == 0.0  # no completed interval
        assert report.downtime_s == pytest.approx(3.0)
        assert report.per_replica_downtime_s["a"] == pytest.approx(3.0)

    def test_uptime_fraction(self):
        router = ledger("a", "b")
        router.crash("a", 0.0)
        router.recover("a", 1.0)
        report = router.health_report(end_s=2.0, start_s=0.0)
        # 1 of 4 replica-seconds down.
        assert report.uptime_fraction == pytest.approx(0.75)

    def test_double_crash_idempotent(self):
        router = ledger("a")
        assert router.crash("a", 1.0)
        assert not router.crash("a", 1.2)  # already down: ignored
        # A second gate closing on a down board is no new crash either.
        assert router.power_down_rack("rack0", 1.3) == [
            (router.by_name("a"), False)
        ]
        assert router.by_name("a").crashes == 1
        router.power_up_rack("rack0", 1.5, cold_start_s=0.0)
        assert router.recover("a", 2.0) == pytest.approx(1.0)
        report = router.health_report(3.0, 0.0)
        assert report.mttr_s == pytest.approx(1.0)
        assert report.recoveries == 1

    def test_is_down_tracks_state(self):
        router = ledger("a")
        board = router.by_name("a")
        assert board.down_since is None
        router.crash("a", 0.5)
        assert board.down_since == 0.5
        router.recover("a", 1.0)
        assert board.down_since is None

    def test_recovery_of_up_board_counts_without_repair(self):
        router = ledger("a")
        assert router.recover("a", 1.0) is None
        report = router.health_report(2.0, 0.0)
        assert report.recoveries == 1
        assert report.mttr_s == 0.0 and report.downtime_s == 0.0

    def test_unknown_replica_rejected(self):
        router = ledger("a")
        with pytest.raises(FaultError):
            router.crash("nope", 0.0)

    def test_empty_replicas_rejected(self):
        with pytest.raises(ServingError):
            ClusterRouter(build_fleet(1, 0))

    def test_start_anchors_span(self):
        report = ledger("a").health_report(end_s=5.0, start_s=2.0)
        assert report.span_s == pytest.approx(3.0)
        assert report.uptime_fraction == 1.0
