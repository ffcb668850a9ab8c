"""Whole-network pipeline simulation (overlay + host)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.overlay.config import OverlayConfig
from repro.sim.functional import conv2d_int16, matmul_int16, random_layer_operands
from repro.sim.host import HostCpu, choose_shift, requantize
from repro.sim.pipeline import NetworkSimulator
from repro.workloads.layers import ConvLayer, EwopLayer, MatMulLayer, PoolLayer
from repro.workloads.models import build_smallcnn
from repro.workloads.network import Network


@pytest.fixture(scope="module")
def config():
    return OverlayConfig(
        d1=4, d2=2, d3=2,
        s_actbuf_words=128, s_wbuf_words=1024, s_psumbuf_words=2048,
    )


@pytest.fixture(scope="module")
def standard_run(config):
    """One shared end-to-end run of a 16x16 SmallCNN (module-scoped: the
    functional simulation visits every MACC in Python)."""
    rng = np.random.default_rng(2020)
    net = build_smallcnn(in_size=16)
    weights = _weights_for(net, rng)
    image = rng.integers(-100, 101, size=(3, 16, 16)).astype(np.int16)
    run = NetworkSimulator(config).run(net, image, weights)
    return net, weights, image, run


def _weights_for(net, rng, magnitude=40):
    return {
        layer.name: random_layer_operands(layer, rng, magnitude=magnitude)[0]
        for layer in net.accelerated_layers()
    }


class TestPipeline:
    def test_smallcnn_end_to_end(self, standard_run):
        net, _, _, run = standard_run
        assert run.output.shape == (10, 1)
        assert run.overlay_cycles > 0
        assert len(run.stages) == len(net.layers)

    def test_matches_host_side_reference(self, standard_run):
        """The pipeline's output equals an independent NumPy re-execution
        of the same fixed-point chain."""
        net, weights, image, run = standard_run

        # Reference chain: golden conv/matmul + the same requant/host ops.
        host = HostCpu()
        x = image
        for layer in net.layers:
            if isinstance(layer, ConvLayer):
                acc = conv2d_int16(weights[layer.name], x, layer.stride,
                                   layer.padding)
                x = requantize(acc, choose_shift(acc))
            elif isinstance(layer, MatMulLayer):
                acc = matmul_int16(weights[layer.name], x.reshape(-1, 1))
                x = requantize(acc, choose_shift(acc))
            else:
                x = host.execute(layer, x)
        assert np.array_equal(run.output, x)

    def test_ewop_pipelined_not_bound(self, standard_run):
        """The §II-A claim: host EWOP hides under the overlay."""
        _, _, _, run = standard_run
        assert not run.host_bound
        assert run.pipelined_cycles == run.overlay_cycles

    def test_weak_host_becomes_bound(self, config, standard_run):
        """A sufficiently slow host CPU does bind — the model is not
        vacuous."""
        net, weights, image, _ = standard_run
        slow = NetworkSimulator(config, host=HostCpu(ops_per_cycle=0.0001))
        run = slow.run(net, image, weights)
        assert run.host_bound
        assert run.pipelined_cycles == run.host_cycles

    def test_shape_break_detected(self, config, rng):
        net = Network(
            name="broken", application="test",
            layers=(
                ConvLayer("c1", 3, 4, in_h=8, in_w=8, kernel_h=3,
                          kernel_w=3, padding=1),
                ConvLayer("c2", 8, 4, in_h=8, in_w=8, kernel_h=3,
                          kernel_w=3, padding=1),  # expects 8 channels
            ),
        )
        weights = _weights_for(net, rng)
        image = rng.integers(-50, 51, size=(3, 8, 8)).astype(np.int16)
        with pytest.raises(SimulationError, match="chain carries"):
            NetworkSimulator(config).run(net, image, weights)

    def test_missing_weights_detected(self, config, rng):
        net = build_smallcnn()
        image = rng.integers(-50, 51, size=(3, 32, 32)).astype(np.int16)
        with pytest.raises(SimulationError, match="no weights"):
            NetworkSimulator(config).run(net, image, {})

    def test_stage_accounting_sums(self, standard_run):
        _, _, _, run = standard_run
        assert run.overlay_cycles == sum(s.overlay_cycles for s in run.stages)
        assert run.host_cycles == sum(s.host_cycles for s in run.stages)

    def test_requant_shifts_recorded(self, standard_run):
        _, _, _, run = standard_run
        conv_stages = [s for s in run.stages if s.kind == "conv"]
        # 5x5x8-deep accumulations of +/-100 x +/-40 operands need shifts.
        assert any(s.shift > 0 for s in conv_stages)


class TestDepthwiseSeparablePipeline:
    def test_dw_separable_chain_bit_exact(self, config, rng):
        """A MobileNet-style depthwise-separable block chains through the
        pipeline simulator bit-exactly (grouped conv on the overlay)."""
        from repro.workloads.layers import EwopLayer

        dw = ConvLayer("dw", in_channels=6, out_channels=6, in_h=10,
                       in_w=10, kernel_h=3, kernel_w=3, padding=1, groups=6)
        pw = ConvLayer("pw", in_channels=6, out_channels=8, in_h=10,
                       in_w=10, kernel_h=1, kernel_w=1)
        net = Network(
            name="dwsep", application="test",
            layers=(
                dw,
                EwopLayer("relu_dw", op="relu", n_elements=600),
                pw,
                EwopLayer("relu_pw", op="relu", n_elements=800),
            ),
        )
        weights = _weights_for(net, rng)
        image = rng.integers(-80, 81, size=(6, 10, 10)).astype(np.int16)
        run = NetworkSimulator(config).run(net, image, weights)
        assert run.output.shape == (8, 10, 10)

        # Independent reference.
        host = HostCpu()
        x = image
        for layer in net.layers:
            if isinstance(layer, ConvLayer):
                acc = conv2d_int16(weights[layer.name], x, layer.stride,
                                   layer.padding, layer.groups)
                x = requantize(acc, choose_shift(acc))
            else:
                x = host.execute(layer, x)
        assert np.array_equal(run.output, x)
