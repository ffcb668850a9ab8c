"""End-to-end integration: compile -> codegen -> simulate -> verify, for a
matrix of layer shapes, plus public-API sanity."""

import numpy as np
import pytest

import repro
from repro import (
    CycleSimulator,
    OverlayConfig,
    compile_schedule,
    schedule_layer,
)
from repro.compiler.search import ScheduleSearch
from repro.sim.functional import random_layer_operands
from repro.workloads.layers import ConvLayer, MatMulLayer

LAYER_MATRIX = [
    ConvLayer("sq3x3", 6, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3, padding=1),
    ConvLayer("pw1x1", 10, 12, in_h=6, in_w=6, kernel_h=1, kernel_w=1),
    ConvLayer("stride2", 4, 6, in_h=11, in_w=11, kernel_h=3, kernel_w=3,
              stride=2, padding=1),
    ConvLayer("rect", 3, 5, in_h=7, in_w=9, kernel_h=5, kernel_w=3,
              padding=2),
    ConvLayer("first", 3, 8, in_h=12, in_w=12, kernel_h=7, kernel_w=7,
              stride=2, padding=3),
    MatMulLayer("fc", in_features=32, out_features=12, batch=1),
    MatMulLayer("batched", in_features=16, out_features=8, batch=6),
    MatMulLayer("wide", in_features=48, out_features=4, batch=2),
]

CONFIG_MATRIX = [
    OverlayConfig(d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
                  s_psumbuf_words=512),
    OverlayConfig(d1=2, d2=3, d3=3, s_actbuf_words=64, s_wbuf_words=128,
                  s_psumbuf_words=256),
    OverlayConfig(d1=6, d2=1, d3=2, s_actbuf_words=128, s_wbuf_words=512,
                  s_psumbuf_words=1024),
]


@pytest.mark.parametrize("layer", LAYER_MATRIX, ids=lambda l: l.name)
@pytest.mark.parametrize("cfg_index", range(len(CONFIG_MATRIX)))
def test_full_stack_bit_exact(layer, cfg_index, rng):
    """Every (layer, config) pair: the compiled schedule, walked MACC by
    MACC through the architectural simulator's datapath (``check_golden``
    raises otherwise), reproduces the golden output bit-exactly and issues
    exactly the layer's MACC count as useful work."""
    config = CONFIG_MATRIX[cfg_index]
    schedule = schedule_layer(layer, config)
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    run = CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )
    assert run.useful_maccs == layer.maccs
    # Timing: the simulator tracks the analytical estimate up to the
    # pipeline head/tail (first tile load + final drain) that the Eqn-12
    # steady-state model amortizes away — visible only on tiny layers.
    model = schedule.estimate.c_exe
    head_tail = 128
    assert model * 0.7 - head_tail <= run.cycles <= model * 1.3 + head_tail


def test_balance_objective_full_stack(rng):
    """Objective 2 schedules are just as functionally correct."""
    layer = ConvLayer("c", 8, 16, in_h=10, in_w=10, kernel_h=3, kernel_w=3,
                      padding=1)
    config = CONFIG_MATRIX[0]
    schedule = schedule_layer(layer, config, objective="balance")
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )


def test_topk_schedules_all_functionally_correct(rng):
    """Not only the winner: every top-k schedule computes the same math."""
    layer = ConvLayer("c", 4, 6, in_h=6, in_w=6, kernel_h=3, kernel_w=3)
    config = CONFIG_MATRIX[0]
    weights, acts = random_layer_operands(layer, rng)
    sim = CycleSimulator(config)
    for schedule in ScheduleSearch(layer, config, top_k=5).run():
        sim.run_layer(compile_schedule(schedule), weights, acts,
                      check_golden=True)


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_docstring_flow():
    """The __init__ docstring example must actually work (tiny version)."""
    from repro import Network, evaluate_network

    net = Network(
        name="doc",
        application="test",
        layers=(ConvLayer("c", 3, 4, in_h=8, in_w=8, kernel_h=3,
                          kernel_w=3, padding=1),),
    )
    result = evaluate_network(net, CONFIG_MATRIX[0])
    assert result.fps > 0
    assert "doc" in result.describe()
