"""Cycle simulator: functional equivalence with the golden models and
timing consistency with the analytical model.

Golden checks run with ``check_golden=True``: without it the output *is*
the golden kernel's once coverage is proven, so only the per-MACC
datapath walk compares two independent computations.
"""

import numpy as np
import pytest

from repro.compiler.codegen import compile_schedule
from repro.compiler.search import schedule_layer
from repro.errors import SimulationError
from repro.overlay.config import OverlayConfig
from repro.sim import cycle
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import golden_layer_output, random_layer_operands
from repro.workloads.layers import ConvLayer, MatMulLayer


def _run(layer, config, rng, objective="performance", check_golden=False):
    """Schedule, compile and simulate ``layer``; with ``check_golden`` the
    run raises unless the datapath walk reproduces the golden output."""
    schedule = schedule_layer(layer, config, objective=objective)
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    run = CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden
    )
    return schedule, run


class TestFunctionalEquivalence:
    def test_conv_matches_golden(self, small_conv, tiny_config, rng):
        _run(small_conv, tiny_config, rng, check_golden=True)

    def test_strided_conv_matches_golden(self, strided_conv, tiny_config, rng):
        _run(strided_conv, tiny_config, rng, check_golden=True)

    def test_pointwise_conv_matches_golden(self, pointwise_conv, tiny_config, rng):
        _run(pointwise_conv, tiny_config, rng, check_golden=True)

    def test_mm_matches_golden(self, small_mm, tiny_config, rng):
        _run(small_mm, tiny_config, rng, check_golden=True)

    def test_balance_objective_also_correct(self, small_conv, tiny_config, rng):
        _run(small_conv, tiny_config, rng, objective="balance",
             check_golden=True)

    def test_useful_maccs_exact(self, small_conv, tiny_config, rng):
        _, run = _run(small_conv, tiny_config, rng)
        assert run.useful_maccs == small_conv.maccs

    def test_issued_at_least_useful(self, strided_conv, tiny_config, rng):
        _, run = _run(strided_conv, tiny_config, rng)
        assert run.issued_maccs >= run.useful_maccs

    def test_corrupted_weights_detected(self, small_mm, tiny_config, rng,
                                        monkeypatch):
        """The golden check actually checks: feed different weights to the
        simulator than to the oracle and it must raise."""
        schedule = schedule_layer(small_mm, tiny_config)
        compiled = compile_schedule(schedule)
        weights, acts = random_layer_operands(small_mm, rng)
        monkeypatch.setattr(
            cycle, "golden_layer_output",
            lambda layer, w, a: golden_layer_output(layer, w + 1, a),
        )
        sim = CycleSimulator(tiny_config)
        with pytest.raises(SimulationError, match="disagrees with golden"):
            sim.run_layer(compiled, weights, acts, check_golden=True)

    @pytest.mark.parametrize("skew", [(1, 0), (0, 1)],
                             ids=["useful", "issued"])
    def test_walk_macc_count_mismatch_detected(self, skew, small_mm,
                                               tiny_config, rng,
                                               monkeypatch):
        """A datapath walk whose useful or issued MACC count differs from
        the coverage proof's raises, even when its output agrees."""
        compiled = compile_schedule(schedule_layer(small_mm, tiny_config))
        weights, acts = random_layer_operands(small_mm, rng)
        walk = CycleSimulator._functional_reference

        def skewed_walk(self, *args):
            output, useful, issued = walk(self, *args)
            return output, useful + skew[0], issued + skew[1]

        monkeypatch.setattr(CycleSimulator, "_functional_reference",
                            skewed_walk)
        sim = CycleSimulator(tiny_config)
        sim.run_layer(compiled, weights, acts)  # no walk, no check
        with pytest.raises(SimulationError, match="datapath walk issued"):
            sim.run_layer(compiled, weights, acts, check_golden=True)

    def test_extreme_operands_wrap_consistently(self, tiny_config, rng):
        """Full-range int16 operands: wrap-around must match the oracle."""
        layer = MatMulLayer("mm", in_features=16, out_features=4, batch=2)
        schedule = schedule_layer(layer, tiny_config)
        compiled = compile_schedule(schedule)
        weights, acts = random_layer_operands(layer, rng, magnitude=32767)
        CycleSimulator(tiny_config).run_layer(
            compiled, weights, acts, check_golden=True
        )


class TestOperandShapes:
    """Mis-shaped operands fail with a structured error whether or not the
    datapath walk (``_functional_reference``) runs beside the coverage
    proof (``_functional_vectorized``)."""

    LAYER = MatMulLayer("fc", in_features=32, out_features=20, batch=1)

    @pytest.mark.parametrize("check_golden", [True, False],
                             ids=["reference", "vectorized"])
    @pytest.mark.parametrize("case", ["weights_transposed", "acts_doubled",
                                      "acts_truncated"])
    def test_mis_shaped_operands_rejected(self, case, check_golden,
                                          tiny_config, rng):
        compiled = compile_schedule(schedule_layer(self.LAYER, tiny_config))
        weights, acts = random_layer_operands(self.LAYER, rng)
        if case == "weights_transposed":
            weights = weights.T
        elif case == "acts_doubled":
            acts = np.concatenate([acts, acts])
        else:
            acts = acts[:10]
        sim = CycleSimulator(tiny_config)
        with pytest.raises(SimulationError, match="expects"):
            sim.run_layer(compiled, weights, acts, check_golden)


class TestTimingConsistency:
    def test_sim_cycles_close_to_model(self, small_conv, tiny_config, rng):
        """The pipeline timeline and the Eqn-12 max() model agree within
        25 % on a compute-bound layer."""
        schedule, run = _run(small_conv, tiny_config, rng)
        model = schedule.estimate.c_exe
        assert abs(run.cycles - model) / model < 0.25

    def test_sim_never_faster_than_compute_floor(self, small_conv, tiny_config, rng):
        schedule, run = _run(small_conv, tiny_config, rng)
        floor = schedule.mapping.x * schedule.mapping.l * schedule.mapping.t
        assert run.cycles >= floor

    def test_double_buffer_ablation_slower(self, small_conv, rng):
        """Serializing communication and computation must cost cycles."""
        base = OverlayConfig(
            d1=3, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512,
        )
        serial = OverlayConfig(
            d1=3, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512, double_buffer=False,
        )
        _, run_db = _run(small_conv, base, rng)
        _, run_serial = _run(small_conv, serial, rng, check_golden=True)
        assert run_serial.cycles > run_db.cycles

    def test_efficiency_in_unit_interval(self, small_conv, tiny_config, rng):
        _, run = _run(small_conv, tiny_config, rng)
        assert 0.0 < run.hardware_efficiency <= 1.0

    def test_trace_contains_all_streams(self, small_conv, tiny_config, rng):
        _, run = _run(small_conv, tiny_config, rng)
        assert run.trace.total_words("RD", "weight") > 0
        assert run.trace.total_words("RD", "act") > 0
        assert run.trace.total_words("WR", "psum") > 0

    def test_weight_trace_matches_stored_volume(self, small_conv, tiny_config, rng):
        schedule, run = _run(small_conv, tiny_config, rng)
        mapping = schedule.mapping
        stored = mapping.used_tpes() * small_conv.weight_footprint(
            mapping.tile(("X", "L", "T"))
        )
        assert run.trace.total_words("RD", "weight") == stored

    def test_bus_busy_recorded(self, small_conv, tiny_config, rng):
        _, run = _run(small_conv, tiny_config, rng)
        assert any("actbus" in name for name in run.bus_busy)
        assert run.bus_busy["dram_rd"] > 0
