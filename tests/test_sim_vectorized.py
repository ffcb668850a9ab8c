"""Coverage proof: bit-identity against the per-MACC datapath walk.

The datapath walk (``run_layer(..., check_golden=True)``) is the oracle:
it routes every issued MACC through the TPE/SuperBlock datapath objects.
The simulator proves the mapping's Eqn-11 coverage and returns the golden
kernel's output, so outputs, useful-MACC counts, and issued-MACC counts
must all be *exactly* equal to the walk's — including zero padding,
strides, grouped channels, and 48-bit accumulator wrap — and a mapping
that under-covers a loop must be rejected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.compiler import compile_schedule, schedule_layer
from repro.compiler.mapping import MappingVectors
from repro.errors import SimulationError
from repro.fixedpoint import _ACC_HALF, _ACC_MOD, wrap48
from repro.overlay.config import OverlayConfig
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import (
    conv2d_int16,
    golden_layer_output,
    random_layer_operands,
)
from repro.workloads.layers import ConvLayer, MatMulLayer

CONFIGS = [OverlayConfig(3, 2, 2), OverlayConfig(4, 2, 3)]

LAYERS = [
    ConvLayer("pad", in_channels=4, out_channels=6, in_h=9, in_w=9,
              kernel_h=3, kernel_w=3, stride=1, padding=1),
    ConvLayer("stride", in_channels=6, out_channels=4, in_h=11, in_w=11,
              kernel_h=3, kernel_w=3, stride=2, padding=0),
    ConvLayer("stride_pad", in_channels=3, out_channels=5, in_h=10, in_w=8,
              kernel_h=3, kernel_w=3, stride=2, padding=1),
    ConvLayer("grouped", in_channels=8, out_channels=8, in_h=7, in_w=7,
              kernel_h=3, kernel_w=3, stride=1, padding=1, groups=4),
    ConvLayer("depthwise", in_channels=6, out_channels=6, in_h=8, in_w=8,
              kernel_h=3, kernel_w=3, stride=1, padding=1, groups=6),
    ConvLayer("pointwise", in_channels=4, out_channels=4, in_h=8, in_w=8,
              kernel_h=1, kernel_w=1, stride=1, padding=0),
    ConvLayer("asym", in_channels=2, out_channels=3, in_h=12, in_w=5,
              kernel_h=5, kernel_w=3, stride=1, padding=2),
    MatMulLayer("fc", in_features=32, out_features=20, batch=1),
    MatMulLayer("batched", in_features=17, out_features=9, batch=6),
]


@pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"{c.d1}x{c.d2}x{c.d3}")
def test_engines_bit_identical(layer, config):
    """The datapath walk and the coverage proof agree bit for bit."""
    compiled = compile_schedule(schedule_layer(layer, config))
    rng = np.random.default_rng(hash(layer.name) % 2**32)
    weights, acts = random_layer_operands(layer, rng)
    # Raises unless the walk's output and MACC counts equal the proof's.
    run = CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )
    assert run.useful_maccs == layer.maccs
    assert np.array_equal(run.output, golden_layer_output(layer, weights, acts))


def test_run_layer_matches_between_engines():
    """The datapath walk changes nothing about a run: it only checks."""
    config = OverlayConfig(3, 2, 2)
    layer = LAYERS[0]
    compiled = compile_schedule(schedule_layer(layer, config))
    rng = np.random.default_rng(11)
    weights, acts = random_layer_operands(layer, rng)
    sim = CycleSimulator(config)
    checked, plain = (
        sim.run_layer(compiled, weights, acts, check_golden)
        for check_golden in (True, False)
    )
    assert np.array_equal(checked.output, plain.output)
    assert checked.cycles == plain.cycles
    assert checked.useful_maccs == plain.useful_maccs
    assert checked.issued_maccs == plain.issued_maccs


def test_wrap_behaviour_is_preserved():
    """Large operands that wrap the 48-bit accumulator stay identical."""
    config = OverlayConfig(3, 2, 2)
    layer = MatMulLayer("hot", in_features=40, out_features=6, batch=2)
    compiled = compile_schedule(schedule_layer(layer, config))
    rng = np.random.default_rng(3)
    weights, acts = random_layer_operands(layer, rng, magnitude=32767)
    CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )


def _with_mapping(compiled, loop_names, trips):
    mapping = MappingVectors(loop_names=loop_names, trips=trips)
    return replace(compiled,
                   schedule=replace(compiled.schedule, mapping=mapping))


def test_under_covering_mapping_rejected():
    """A mapping whose padded extent falls short of one loop (Eqn 11)
    makes the simulator raise, naming that loop."""
    config = OverlayConfig(3, 2, 2)
    layer = MatMulLayer("short", in_features=17, out_features=9, batch=6)
    compiled = compile_schedule(schedule_layer(layer, config))
    mapping = compiled.schedule.mapping
    trips = {level: dict(loops) for level, loops in mapping.trips.items()}
    for loops in trips.values():
        loops["M"] = 1
    bad = _with_mapping(compiled, mapping.loop_names, trips)
    weights, acts = random_layer_operands(layer, np.random.default_rng(0))
    with pytest.raises(SimulationError,
                       match=r"loop M covered 1 < required 17"):
        CycleSimulator(config).run_layer(bad, weights, acts)


def test_mismatched_loop_names_rejected():
    """The bijection argument needs the mapping to name exactly the
    layer's loops; a mapping missing one raises, not a KeyError."""
    config = OverlayConfig(3, 2, 2)
    layer = MatMulLayer("missing", in_features=17, out_features=9, batch=6)
    compiled = compile_schedule(schedule_layer(layer, config))
    mapping = compiled.schedule.mapping
    trips = {
        level: {name: trip for name, trip in loops.items() if name != "P"}
        for level, loops in mapping.trips.items()
    }
    bad = _with_mapping(compiled, ("M", "N"), trips)
    weights, acts = random_layer_operands(layer, np.random.default_rng(0))
    with pytest.raises(SimulationError, match="mapping loops"):
        CycleSimulator(config).run_layer(bad, weights, acts)


class TestWrap48FastPath:
    def test_matches_object_path_at_boundaries(self):
        values = np.array(
            [0, 1, -1, _ACC_HALF - 1, _ACC_HALF, -_ACC_HALF,
             -_ACC_HALF - 1, _ACC_MOD, _ACC_MOD - 1, -_ACC_MOD,
             2**62, -(2**62), 2**63 - 1, -(2**63)],
            dtype=np.int64,
        )
        slow = (
            np.mod(values.astype(object) + _ACC_HALF, _ACC_MOD) - _ACC_HALF
        ).astype(np.int64)
        fast = wrap48(values)
        assert fast.dtype == np.int64
        assert np.array_equal(fast, slow)
        assert all(int(fast[i]) == wrap48(int(values[i]))
                   for i in range(values.size))

    def test_seeded_sweep_matches_scalar(self):
        rng = np.random.default_rng(99)
        values = rng.integers(-(2**63), 2**63 - 1, size=5000,
                              dtype=np.int64)
        fast = wrap48(values)
        assert all(int(fast[i]) == wrap48(int(values[i]))
                   for i in range(values.size))

    def test_float_arrays_keep_object_fallback(self):
        out = wrap48(np.array([float(_ACC_HALF)]))
        assert out.dtype == np.int64
        assert int(out[0]) == -_ACC_HALF


class TestVectorizedGoldenConv:
    def test_strided_padded_golden_unchanged(self):
        """sliding_window_view path equals the direct definition."""
        rng = np.random.default_rng(5)
        for stride, padding, groups in [(1, 0, 1), (1, 1, 1), (2, 1, 1),
                                        (3, 2, 1), (1, 1, 2), (2, 0, 2)]:
            n, m = 4, 6
            weights = rng.integers(-50, 50, size=(m, n // groups, 3, 3))
            acts = rng.integers(-50, 50, size=(n, 11, 9))
            got = conv2d_int16(weights.astype(np.int16),
                               acts.astype(np.int16),
                               stride=stride, padding=padding,
                               groups=groups)
            expect = _direct_conv(weights, acts, stride, padding, groups)
            assert np.array_equal(got, expect), (stride, padding, groups)


def _direct_conv(weights, acts, stride, padding, groups):
    """Quadruple-loop definition of the golden conv, for cross-checking."""
    m, n_g, r, s = weights.shape
    n, ih, iw = acts.shape
    oh = (ih + 2 * padding - r) // stride + 1
    ow = (iw + 2 * padding - s) // stride + 1
    m_g = m // groups
    out = np.zeros((m, oh, ow), dtype=object)
    for om in range(m):
        group = om // m_g
        for oy in range(oh):
            for ox in range(ow):
                acc = 0
                for dn in range(n_g):
                    for dr in range(r):
                        for ds in range(s):
                            yy = oy * stride + dr - padding
                            xx = ox * stride + ds - padding
                            if 0 <= yy < ih and 0 <= xx < iw:
                                acc += int(weights[om, dn, dr, ds]) * int(
                                    acts[group * n_g + dn, yy, xx]
                                )
                out[om, oy, ox] = acc
    return wrap48(out.astype(np.int64))
