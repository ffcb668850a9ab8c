"""Arrival generators and request lifecycle."""

import math

import pytest

from repro.errors import ServingError
from repro.serving.request import (
    InferenceRequest,
    RetryPolicy,
    make_requests,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)


class TestPoissonArrivals:
    def test_deterministic_per_seed(self):
        a = poisson_arrivals(100.0, 50, seed=7)
        b = poisson_arrivals(100.0, 50, seed=7)
        assert a == b

    def test_seed_changes_trace(self):
        assert poisson_arrivals(100.0, 50, seed=7) != \
            poisson_arrivals(100.0, 50, seed=8)

    def test_sorted_and_positive(self):
        times = poisson_arrivals(500.0, 200, seed=3)
        assert all(t >= 0 for t in times)
        assert times == sorted(times)

    def test_mean_rate_approximates_target(self):
        rate = 1000.0
        times = poisson_arrivals(rate, 5000, seed=1)
        observed = len(times) / times[-1]
        assert observed == pytest.approx(rate, rel=0.1)

    def test_seed_is_keyword_only(self):
        with pytest.raises(TypeError):
            poisson_arrivals(100.0, 10, 7)  # type: ignore[misc]

    def test_start_offset(self):
        times = poisson_arrivals(100.0, 10, seed=0, start_s=5.0)
        assert times[0] > 5.0

    @pytest.mark.parametrize("rate,n", [(0.0, 10), (-1.0, 10), (10.0, 0)])
    def test_invalid_args(self, rate, n):
        with pytest.raises(ServingError):
            poisson_arrivals(rate, n, seed=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        """NaN compares false against everything, so a NaN rate used to
        slip past the <= 0 check and poison every downstream gap."""
        with pytest.raises(ServingError):
            poisson_arrivals(rate, 10, seed=0)

    def test_non_finite_start_rejected(self):
        with pytest.raises(ServingError):
            poisson_arrivals(100.0, 10, seed=0, start_s=math.nan)


class TestUniformArrivals:
    def test_even_spacing(self):
        times = uniform_arrivals(100.0, 5)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)

    def test_invalid_rate(self):
        with pytest.raises(ServingError):
            uniform_arrivals(0.0, 5)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ServingError):
            uniform_arrivals(rate, 5)


class TestTraceArrivals:
    def test_valid_trace_passes_through(self):
        assert trace_arrivals([0.0, 0.5, 0.5, 1.0]) == [0.0, 0.5, 0.5, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ServingError):
            trace_arrivals([])

    def test_unsorted_rejected(self):
        with pytest.raises(ServingError):
            trace_arrivals([1.0, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ServingError):
            trace_arrivals([-0.1, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ServingError):
            trace_arrivals([0.0, bad])


class TestRequests:
    def test_make_requests_ids_dense(self):
        reqs = make_requests([0.1, 0.2, 0.3], "m")
        assert [r.request_id for r in reqs] == [0, 1, 2]
        assert all(r.model == "m" for r in reqs)

    def test_latency_requires_completion(self):
        req = InferenceRequest(request_id=0, model="m", arrival_s=0.0)
        with pytest.raises(ServingError):
            _ = req.latency_s
        req.dispatch_s = 0.5
        req.complete_s = 1.25
        assert req.queue_wait_s == pytest.approx(0.5)
        assert req.latency_s == pytest.approx(1.25)


class TestDeadlines:
    def test_deadline_is_relative_to_arrival(self):
        req = InferenceRequest(request_id=0, model="m", arrival_s=2.0,
                               deadline_s=0.5)
        assert req.deadline_at_s == pytest.approx(2.5)
        assert not req.expired(2.49)
        assert req.expired(2.5)

    def test_no_deadline_never_expires(self):
        req = InferenceRequest(request_id=0, model="m", arrival_s=0.0)
        assert math.isinf(req.deadline_at_s)
        assert not req.expired(1e9)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_deadline_rejected(self, deadline):
        with pytest.raises(ServingError):
            InferenceRequest(request_id=0, model="m", arrival_s=0.0,
                             deadline_s=deadline)

    def test_non_finite_arrival_rejected(self):
        with pytest.raises(ServingError):
            InferenceRequest(request_id=0, model="m", arrival_s=math.nan)

    def test_make_requests_applies_deadline(self):
        reqs = make_requests([0.1, 0.2], "m", deadline_s=0.05)
        assert [r.deadline_at_s for r in reqs] == \
            [pytest.approx(0.15), pytest.approx(0.25)]


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(max_attempts=10, backoff_base_s=1e-3,
                             backoff_cap_s=4e-3)
        assert policy.backoff_s(1) == pytest.approx(1e-3)
        assert policy.backoff_s(2) == pytest.approx(2e-3)
        assert policy.backoff_s(3) == pytest.approx(4e-3)
        assert policy.backoff_s(4) == pytest.approx(4e-3)  # capped
        assert policy.backoff_s(20) == pytest.approx(4e-3)

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(backoff_base_s=-1e-3),
        dict(backoff_cap_s=-1.0),
        dict(backoff_base_s=math.nan),
        dict(backoff_cap_s=math.inf),
    ])
    def test_invalid_policy(self, kwargs):
        with pytest.raises(ServingError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("max_attempts", [math.nan, 2.5, False])
    def test_non_integer_max_attempts_rejected(self, max_attempts):
        with pytest.raises(ServingError,
                           match="max_attempts must be an integer"):
            RetryPolicy(max_attempts=max_attempts)

    def test_backoff_needs_failed_attempt(self):
        with pytest.raises(ServingError):
            RetryPolicy().backoff_s(0)
