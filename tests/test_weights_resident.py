"""Weight residency (§III-A1 preload) vs per-layer streaming."""

import dataclasses

import numpy as np
import pytest

from repro.compiler.codegen import compile_schedule
from repro.compiler.model import evaluate_mapping
from repro.compiler.search import schedule_layer
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import random_layer_operands
from repro.workloads.layers import MatMulLayer


@pytest.fixture
def resident_config(tiny_config):
    return dataclasses.replace(tiny_config, weights_resident=True)


class TestModel:
    def test_residency_removes_weight_stream(self, tiny_config, resident_config,
                                             small_conv):
        streamed = schedule_layer(small_conv, tiny_config)
        resident_est = evaluate_mapping(
            small_conv, resident_config, streamed.mapping
        )
        assert resident_est.c_dram_rd < streamed.estimate.c_dram_rd
        # Everything else is untouched.
        assert resident_est.c_comp == streamed.estimate.c_comp
        assert resident_est.c_psumbus == streamed.estimate.c_psumbus
        assert resident_est.e_wbuf == pytest.approx(streamed.estimate.e_wbuf)

    def test_bandwidth_bound_mm_recovers(self, tiny_config, resident_config):
        """A batch-1 MM is weight-stream-bound; residency unbinds it."""
        layer = MatMulLayer("fc", in_features=64, out_features=48, batch=1)
        streamed = schedule_layer(layer, tiny_config)
        resident = schedule_layer(layer, resident_config)
        assert resident.cycles <= streamed.cycles
        assert resident.estimate.bottleneck != "dram_rd" or \
            resident.estimate.c_dram_rd < streamed.estimate.c_dram_rd

    def test_search_exploits_residency(self, tiny_config, resident_config,
                                       small_conv):
        """With streaming off, the search may pick schedules that would
        otherwise pay for weight duplication — never slower ones."""
        streamed = schedule_layer(small_conv, tiny_config)
        resident = schedule_layer(small_conv, resident_config)
        assert resident.cycles <= streamed.cycles


class TestSimulator:
    def test_no_weight_trace_when_resident(self, resident_config, small_conv, rng):
        schedule = schedule_layer(small_conv, resident_config)
        compiled = compile_schedule(schedule)
        weights, acts = random_layer_operands(small_conv, rng)
        run = CycleSimulator(resident_config).run_layer(
            compiled, weights, acts, check_golden=True
        )
        assert run.trace.total_words("RD", "weight") == 0

    def test_streamed_still_traces_weights(self, tiny_config, small_conv, rng):
        schedule = schedule_layer(small_conv, tiny_config)
        compiled = compile_schedule(schedule)
        weights, acts = random_layer_operands(small_conv, rng)
        run = CycleSimulator(tiny_config).run_layer(compiled, weights, acts)
        assert run.trace.total_words("RD", "weight") > 0

    def test_resident_not_slower(self, tiny_config, resident_config,
                                 small_conv, rng):
        weights, acts = random_layer_operands(small_conv, rng)
        runs = {}
        for config in (tiny_config, resident_config):
            schedule = schedule_layer(small_conv, config)
            runs[config.weights_resident] = CycleSimulator(config).run_layer(
                compile_schedule(schedule), weights, acts,
                check_golden=config.weights_resident,
            )
        assert runs[True].cycles <= runs[False].cycles
