"""Bus occupancy model."""

import pytest

from repro.errors import SimulationError
from repro.overlay.buses import BusModel


class TestBusModel:
    def test_transfer_duration(self):
        bus = BusModel("b", words_per_cycle=2.0)
        assert bus.transfer(0, 10) == 5
        assert bus.busy_cycles == 5
        assert bus.words_moved == 10

    def test_serialization(self):
        bus = BusModel("b", words_per_cycle=1.0)
        first = bus.transfer(0, 4)
        second = bus.transfer(0, 4)  # requested at 0, queued behind first
        assert first == 4
        assert second == 8

    def test_idle_gap_respected(self):
        bus = BusModel("b", words_per_cycle=1.0)
        bus.transfer(0, 2)
        assert bus.transfer(10, 3) == 13

    def test_zero_words_is_free(self):
        bus = BusModel("b", words_per_cycle=1.0)
        assert bus.transfer(5, 0) == 5
        assert bus.busy_cycles == 0

    def test_fractional_rate_rounds_up(self):
        bus = BusModel("b", words_per_cycle=1.5)
        assert bus.transfer(0, 4) == 3  # ceil(4 / 1.5)

    def test_negative_words_rejected(self):
        bus = BusModel("b", words_per_cycle=1.0)
        with pytest.raises(SimulationError):
            bus.transfer(0, -1)

    def test_zero_bandwidth_rejected(self):
        bus = BusModel("b", words_per_cycle=0.0)
        with pytest.raises(SimulationError, match="no bandwidth"):
            bus.transfer(0, 1)

    def test_utilization(self):
        bus = BusModel("b", words_per_cycle=1.0)
        bus.transfer(0, 25)
        assert bus.utilization(100) == pytest.approx(0.25)
        assert bus.utilization(0) == 0.0

