"""Admission control: bounded queue, backpressure, degradation band."""

import pytest

from repro.errors import ServingError
from repro.serving.admission import AdmissionPolicy


class TestAdmissionPolicy:
    def test_invalid_capacity(self):
        with pytest.raises(ServingError):
            AdmissionPolicy(capacity=0)

    @pytest.mark.parametrize("capacity", [float("nan"), 10.5, 256.0])
    def test_non_integer_capacity_rejected(self, capacity):
        # A NaN capacity used to reject every arrival silently.
        with pytest.raises(ServingError, match="capacity must be an integer"):
            AdmissionPolicy(capacity=capacity)

    @pytest.mark.parametrize("watermark", [0.0, -0.5, 1.5])
    def test_invalid_watermark(self, watermark):
        with pytest.raises(ServingError):
            AdmissionPolicy(degrade_watermark=watermark)


class TestAdmissionController:
    """The policy's admit/degraded decisions the serving loop asks."""

    def test_admits_below_capacity(self):
        policy = AdmissionPolicy(capacity=2)
        assert policy.admit(0)
        assert policy.admit(1)

    def test_rejects_at_capacity(self):
        policy = AdmissionPolicy(capacity=2)
        assert not policy.admit(2)

    def test_degraded_band(self):
        policy = AdmissionPolicy(capacity=100, degrade_watermark=0.75)
        assert not policy.degraded(74)
        assert policy.degraded(75)
        assert policy.degraded(100)


class TestAdmissionEdgeCases:
    def test_queue_exactly_at_watermark(self):
        """The watermark boundary itself is degraded (>=, not >)."""
        policy = AdmissionPolicy(capacity=8, degrade_watermark=0.5)
        assert not policy.degraded(3)
        assert policy.degraded(4)  # exactly 0.5 * 8

    def test_fractional_watermark_threshold(self):
        # 0.75 * 10 = 7.5: depth 7 is healthy, depth 8 is degraded.
        policy = AdmissionPolicy(capacity=10, degrade_watermark=0.75)
        assert not policy.degraded(7)
        assert policy.degraded(8)

    def test_watermark_equals_capacity(self):
        """watermark=1.0 only degrades a full queue — which admission
        then rejects, so degradation and rejection meet at one depth."""
        policy = AdmissionPolicy(capacity=4, degrade_watermark=1.0)
        assert not policy.degraded(3)
        assert policy.degraded(4)
        assert not policy.admit(4)

    def test_capacity_one(self):
        policy = AdmissionPolicy(capacity=1, degrade_watermark=1.0)
        assert policy.admit(0)
        assert not policy.admit(1)
        assert policy.degraded(1)

    def test_degradation_toggles_with_depth(self):
        """Degradation is a pure function of depth: draining the queue
        below the watermark restores normal batch formation."""
        policy = AdmissionPolicy(capacity=8, degrade_watermark=0.5)
        assert not policy.degraded(2)
        assert policy.degraded(6)
        assert not policy.degraded(2)
        assert policy.degraded(5)

    def test_fault_pressure_overrides_watermark(self):
        policy = AdmissionPolicy(capacity=100, degrade_watermark=0.75)
        assert not policy.degraded(0)
        assert policy.degraded(0, fault_pressure=True)
        assert not policy.degraded(0, fault_pressure=False)
