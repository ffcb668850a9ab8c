"""Property-based full-stack fuzzing.

Hypothesis draws random layer shapes and overlay grids; every draw must
compile to a feasible schedule whose cycle-level execution is bit-exact
against the golden model.  Every layer runs with ``check_golden=True``:
the simulator returns the golden kernel's output once it has proven
coverage, and the per-MACC datapath walk must reproduce that output and
the MACC counts exactly.  This is the wide net behind the fixed
integration matrix.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.codegen import compile_schedule
from repro.compiler.constraints import check_constraints
from repro.compiler.search import ScheduleSearch
from repro.overlay.config import OverlayConfig
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import random_layer_operands
from repro.workloads.layers import ConvLayer, MatMulLayer

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

config_strategy = st.builds(
    OverlayConfig,
    d1=st.integers(1, 4),
    d2=st.integers(1, 3),
    d3=st.integers(1, 3),
    s_actbuf_words=st.sampled_from([32, 64, 128]),
    s_wbuf_words=st.sampled_from([64, 256]),
    s_psumbuf_words=st.sampled_from([128, 512]),
)

conv_strategy = st.builds(
    ConvLayer,
    name=st.just("fuzz_conv"),
    in_channels=st.integers(1, 6),
    out_channels=st.integers(1, 8),
    in_h=st.integers(3, 9),
    in_w=st.integers(3, 9),
    kernel_h=st.sampled_from([1, 3]),
    kernel_w=st.sampled_from([1, 3]),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
)

mm_strategy = st.builds(
    MatMulLayer,
    name=st.just("fuzz_mm"),
    in_features=st.integers(1, 40),
    out_features=st.integers(1, 24),
    batch=st.integers(1, 5),
)


def _run_checked(config, compiled, weights, acts):
    """Simulate with the datapath walk checked against the coverage proof."""
    return CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )


def _run_fullstack(layer, config, seed):
    schedule = ScheduleSearch(
        layer, config, spatial_beam=24, temporal_beam=24
    ).run()[0]
    assert check_constraints(layer, config, schedule.mapping) == []
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(
        layer, np.random.default_rng(seed)
    )
    run = _run_checked(config, compiled, weights, acts)
    assert run.useful_maccs == layer.maccs
    assert run.issued_maccs >= run.useful_maccs


@_SETTINGS
@given(layer=conv_strategy, config=config_strategy, seed=st.integers(0, 99))
def test_fuzz_conv_fullstack(layer, config, seed):
    _run_fullstack(layer, config, seed)


@_SETTINGS
@given(layer=mm_strategy, config=config_strategy, seed=st.integers(0, 99))
def test_fuzz_mm_fullstack(layer, config, seed):
    _run_fullstack(layer, config, seed)


fault_knobs_strategy = st.fixed_dictionaries({
    "crash_rate_hz": st.sampled_from([0.0, 10.0, 40.0]),
    "slowdown_rate_hz": st.sampled_from([0.0, 10.0]),
    "tpe_fault_rate_hz": st.sampled_from([0.0, 10.0]),
    "bitflip_rate_hz": st.sampled_from([0.0, 30.0]),
    "link_fault_rate_hz": st.sampled_from([0.0, 10.0]),
})


@_SETTINGS
@given(
    knobs=fault_knobs_strategy,
    seed=st.integers(0, 999),
    n_replicas=st.integers(1, 3),
    deadline_ms=st.sampled_from([None, 10.0, 50.0]),
)
def test_fuzz_fault_schedule_serving(knobs, seed, n_replicas, deadline_ms):
    """Any seeded fault schedule must leave the serving engine with
    conserved request accounting, bounded rates, and bit-identical
    reruns."""
    from repro.faults import generate_fault_schedule
    from repro.overlay.config import OverlayConfig
    from repro.serving import (
        AdmissionPolicy,
        BatchPolicy,
        RetryPolicy,
        ServingEngine,
        make_requests,
        uniform_arrivals,
    )
    from tests.test_serving_faults import StubService

    grid = OverlayConfig(d1=3, d2=2, d3=2)
    service = StubService(n_replicas=n_replicas, service_s=1e-3)
    faults = generate_fault_schedule(
        seed=seed, duration_s=0.05, replicas=service.replica_names(),
        grid=grid, mean_repair_s=0.005, **knobs,
    )

    def run():
        engine = ServingEngine(
            StubService(n_replicas=n_replicas, service_s=1e-3),
            batch_policy=BatchPolicy(max_batch=4, max_wait_s=1e-3),
            admission_policy=AdmissionPolicy(capacity=32),
            fault_schedule=faults,
            retry_policy=RetryPolicy(),
        )
        deadline_s = deadline_ms * 1e-3 if deadline_ms else None
        requests = make_requests(
            uniform_arrivals(1000.0, 40), "fuzz", deadline_s=deadline_s
        )
        return engine.run(requests)

    report = run()
    # Conservation: every offered request is completed, dropped, or
    # rejected — never lost.
    assert report.n_completed + report.n_dropped + report.n_rejected == 40
    assert report.n_offered == 40
    assert 0.0 <= report.availability <= 1.0
    assert 0.0 <= report.drop_rate <= 1.0
    assert sum(report.drop_reasons.values()) == report.n_dropped
    if report.health is not None:
        assert 0.0 <= report.health.uptime_fraction <= 1.0
        assert report.health.mttr_s >= 0.0
    for req in report.completed:
        assert req.attempts >= 1
        if deadline_ms is not None:
            # The dispatch (or retry) that completed the request
            # respected its deadline.
            assert req.dispatch_s < req.arrival_s + deadline_ms * 1e-3
    # Identical seed + schedule => bit-identical report.
    rerun = run()
    assert rerun.describe() == report.describe()
    assert rerun.latencies_s == report.latencies_s


def test_forced_multipass_bit_exact(rng):
    """A PSumBUF too small for the output forces LoopX onto reduction
    loops (multipass accumulation with host-side adds across passes);
    the result must still be bit-exact."""
    config = OverlayConfig(
        d1=2, d2=2, d3=2,
        s_actbuf_words=32,
        s_wbuf_words=64,
        s_psumbuf_words=16,  # usable tile: 8 words
    )
    layer = ConvLayer(
        "multipass", in_channels=8, out_channels=6,
        in_h=6, in_w=6, kernel_h=3, kernel_w=3, padding=1,
    )
    schedule = ScheduleSearch(layer, config).run()[0]
    # The tiny PSumBUF makes a single-pass schedule impossible: with at
    # most 8 output words per pass the layer's 216 outputs need many
    # passes.
    assert schedule.mapping.x > 1
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    _run_checked(config, compiled, weights, acts)


def test_reduction_on_x_accumulates_across_passes(rng):
    """Force a schedule where LoopX genuinely splits the reduction (the
    paper's multi-pass PSumBUS store/reload path)."""
    from repro.compiler.mapping import MappingVectors
    from repro.compiler.model import evaluate_mapping

    config = OverlayConfig(
        d1=2, d2=2, d3=1,
        s_actbuf_words=64, s_wbuf_words=64, s_psumbuf_words=128,
    )
    layer = MatMulLayer("mp", in_features=8, out_features=4, batch=2)
    mapping = MappingVectors.from_partial(
        ("M", "N", "P"),
        {"D1": {"M": 2}, "D2": {"N": 2}, "X": {"M": 4},
         "T": {"N": 2, "P": 2}},
    )
    assert check_constraints(layer, config, mapping) == []
    estimate = evaluate_mapping(layer, config, mapping)
    from repro.compiler.search import Schedule
    schedule = Schedule(
        layer=layer, config=config, mapping=mapping,
        estimate=estimate, objective="performance",
    )
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    run = _run_checked(config, compiled, weights, acts)
    # The trace shows the multipass refetch stream.
    assert run.trace.total_words("RD", "psum") > 0


streamed_mm_strategy = st.builds(
    MatMulLayer,
    name=st.just("fuzz_score"),
    in_features=st.integers(1, 16),
    out_features=st.integers(1, 12),
    batch=st.integers(1, 6),
    weight_source=st.just("producer"),
)


@_SETTINGS
@given(layer=streamed_mm_strategy, config=config_strategy,
       seed=st.integers(0, 99))
def test_fuzz_streamed_mm_fullstack(layer, config, seed):
    """Attention-style weight-streaming matmuls compile and simulate
    exactly like stored-weight ones — streaming is accounting only."""
    _run_fullstack(layer, config, seed)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    d_model=st.sampled_from([8, 16, 24]),
    seq_len=st.integers(2, 10),
    n_classes=st.integers(2, 10),
    seed=st.integers(0, 99),
)
def test_fuzz_tiny_attention_chains_bit_true(d_model, seq_len, n_classes,
                                             seed):
    """Random tiny-attention shapes chain end to end through the
    sequential simulator: every layer coverage-proven, reruns identical."""
    from repro.sim.pipeline import NetworkSimulator
    from repro.workloads.models import build_tiny_attention

    network = build_tiny_attention(
        d_model=d_model, seq_len=seq_len, n_classes=n_classes,
    )
    config = OverlayConfig(d1=3, d2=2, d3=2)
    rng = np.random.default_rng(seed)
    weights = {
        layer.name: random_layer_operands(layer, rng)[0]
        for layer in network.accelerated_layers()
        if getattr(layer, "weight_source", None) is None
    }
    first = network.layers[0]
    inputs = rng.integers(
        -127, 128, size=(first.n_features, first.batch)
    ).astype(np.int16)
    run = NetworkSimulator(config).run(network, inputs, weights)
    assert len(run.stages) == len(network.layers)
    assert run.output.shape == (n_classes, seq_len)
    rerun = NetworkSimulator(config).run(network, inputs, weights)
    assert np.array_equal(run.output, rerun.output)
    assert run.overlay_cycles == rerun.overlay_cycles
    assert run.host_cycles == rerun.host_cycles
