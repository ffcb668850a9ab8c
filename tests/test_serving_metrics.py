"""Percentiles, SLO accounting, and report aggregation."""

import pytest

from repro.errors import ServingError
from repro.serving.metrics import ServingReport, percentile
from repro.serving.request import InferenceRequest


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile(values, 0) == 1.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ServingError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ServingError):
            percentile([1.0], 101)


def _record(i, arrival, dispatch, complete, batch=1, replica="r0"):
    return InferenceRequest(
        request_id=i, model="m", arrival_s=arrival, dispatch_s=dispatch,
        complete_s=complete, batch_size=batch, replica=replica,
    )


def _report(completed, rejected=0, slo_s=1.0, makespan=10.0):
    refused = tuple(
        InferenceRequest(request_id=1000 + i, model="m", arrival_s=0.0)
        for i in range(rejected)
    )
    return ServingReport(
        model="m", completed=tuple(completed), rejected=refused,
        slo_s=slo_s, makespan_s=makespan, queue_depth_time_avg=0.0,
        queue_depth_max=0, utilization={"r0": 0.5},
    )


class TestServingReport:
    def test_throughput(self):
        report = _report(
            [_record(i, 0.0, 0.0, 1.0) for i in range(20)], makespan=2.0
        )
        assert report.throughput_rps == pytest.approx(10.0)

    def test_slo_counts_late_and_rejected(self):
        completed = [
            _record(0, 0.0, 0.0, 0.5),   # meets 1 s SLO
            _record(1, 0.0, 0.0, 1.5),   # misses
        ]
        report = _report(completed, rejected=2)
        assert report.slo_violations == 3
        assert report.slo_violation_rate == pytest.approx(3 / 4)

    def test_mean_batch_size_weighs_batches_not_requests(self):
        # One batch of 4 at t=1 and one straggler batch of 1 at t=2.
        completed = [
            *[_record(i, 0.0, 1.0, 1.5, batch=4) for i in range(4)],
            _record(4, 1.9, 2.0, 2.5, batch=1),
        ]
        report = _report(completed)
        assert report.mean_batch_size == pytest.approx(2.5)

    def test_describe_mentions_key_metrics(self):
        report = _report([_record(0, 0.0, 0.1, 0.4)])
        text = report.describe()
        assert "p99" in text and "SLO" in text and "util" in text

    def test_empty_report_safe(self):
        report = _report([], rejected=3)
        assert report.throughput_rps == 0.0 or report.makespan_s > 0
        assert report.slo_violation_rate == 1.0
        assert report.mean_latency_s == 0.0
        assert "rejected" in report.describe()


class TestTinySamplePercentiles:
    """Regressions: high percentiles of tiny samples clamp to the max."""

    def test_p99_of_two_is_max(self):
        assert percentile([1.0, 2.0], 99) == 2.0

    def test_p95_of_two_is_max(self):
        assert percentile([5.0, 3.0], 95) == 5.0

    def test_high_q_never_exceeds_max(self):
        for n in range(1, 8):
            values = [float(i) for i in range(n)]
            for q in (90, 95, 99, 99.9, 100):
                assert percentile(values, q) == values[-1]

    def test_fractional_q_on_tiny_sample(self):
        # ceil(2 * 99.9 / 100) lands exactly on n; anything past it
        # must clamp rather than index out of range.
        assert percentile([1.0, 2.0], 99.9) == 2.0
        assert percentile([1.0], 99.9) == 1.0


class TestEmptyWindowGuards:
    """Regressions: an empty completion window never divides or raises."""

    def test_percentiles_zero_on_empty_report(self):
        report = _report([], rejected=1)
        assert report.p50_s == 0.0
        assert report.p95_s == 0.0
        assert report.p99_s == 0.0
        assert report.latency_percentile_s(99.9) == 0.0

    def test_all_ratio_metrics_finite_on_empty_report(self):
        import math

        report = _report([], rejected=0, makespan=0.0)
        for value in (
            report.throughput_rps, report.drop_rate, report.availability,
            report.slo_violation_rate, report.mean_latency_s,
            report.mean_queue_wait_s, report.mean_batch_size,
            report.mean_utilization,
        ):
            assert math.isfinite(value)

    def test_raw_percentile_still_strict_on_empty(self):
        with pytest.raises(ServingError):
            percentile([], 99)
