"""Grouped / depthwise convolution support."""

import numpy as np
import pytest

from repro.compiler.adjacency import adjacency_matrix
from repro.compiler.codegen import compile_schedule
from repro.compiler.search import schedule_layer
from repro.errors import WorkloadError
from repro.overlay.config import OverlayConfig
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import (
    conv2d_int16,
    golden_layer_output,
    random_layer_operands,
)
from repro.workloads.layers import ConvLayer
from repro.workloads.models import build_mobilenet_v1


@pytest.fixture
def depthwise():
    return ConvLayer(
        "dw", in_channels=6, out_channels=6, in_h=8, in_w=8,
        kernel_h=3, kernel_w=3, padding=1, groups=6,
    )


@pytest.fixture
def grouped():
    return ConvLayer(
        "g2", in_channels=4, out_channels=8, in_h=6, in_w=6,
        kernel_h=3, kernel_w=3, padding=1, groups=2,
    )


class TestAccounting:
    def test_depthwise_macc_count(self, depthwise):
        # One input channel per filter: 6 * 8 * 8 * 3 * 3.
        assert depthwise.maccs == 6 * 64 * 9
        assert depthwise.weight_words == 6 * 9

    def test_grouped_counts(self, grouped):
        assert grouped.group_in_channels == 2
        assert grouped.group_out_channels == 4
        assert grouped.maccs == 8 * 2 * 36 * 9
        assert grouped.weight_words == 8 * 2 * 9

    def test_invalid_groups_rejected(self):
        with pytest.raises(WorkloadError, match="groups"):
            ConvLayer("bad", 4, 6, in_h=4, in_w=4, kernel_h=1, kernel_w=1,
                      groups=4)

    def test_m_touches_activations_with_groups(self, grouped):
        tags = {d.name: d.in_acts for d in grouped.loop_dims()}
        assert tags["M"]
        ungrouped = ConvLayer("u", 4, 8, in_h=6, in_w=6, kernel_h=3,
                              kernel_w=3)
        assert not {d.name: d.in_acts for d in ungrouped.loop_dims()}["M"]

    def test_act_footprint_scales_with_groups_touched(self, grouped):
        one_group = grouped.act_footprint({"M": 4, "N": 2, "H": 2, "W": 2,
                                           "R": 3, "S": 3})
        both_groups = grouped.act_footprint({"M": 8, "N": 2, "H": 2, "W": 2,
                                             "R": 3, "S": 3})
        assert both_groups == 2 * one_group

    def test_act_coord_selects_group_channel(self, grouped):
        idx = {"M": 5, "N": 1, "H": 0, "W": 0, "R": 1, "S": 1}
        # m=5 lies in group 1 (out channels 4-7) -> input channel 2 + n.
        assert grouped.act_coord(idx)[0] == 2 + 1


class TestAdjacency:
    def test_grouped_conv_loses_d2(self, grouped, depthwise):
        for layer in (grouped, depthwise):
            assert adjacency_matrix(layer)["D2"]["M"] == 0

    def test_ungrouped_keeps_d2(self):
        layer = ConvLayer("u", 4, 8, in_h=6, in_w=6, kernel_h=3, kernel_w=3)
        assert adjacency_matrix(layer)["D2"]["M"] == 1


class TestGoldenModel:
    def test_depthwise_matches_per_channel(self, depthwise, rng):
        w, a = random_layer_operands(depthwise, rng)
        out = golden_layer_output(depthwise, w, a)
        for c in range(6):
            ref = conv2d_int16(w[c:c + 1], a[c:c + 1], 1, 1)
            assert np.array_equal(out[c:c + 1], ref)

    def test_grouped_shapes(self, grouped, rng):
        w, a = random_layer_operands(grouped, rng)
        assert w.shape == (8, 2, 3, 3)
        assert golden_layer_output(grouped, w, a).shape == (8, 6, 6)


class TestFullStack:
    @pytest.fixture
    def config(self):
        return OverlayConfig(
            d1=3, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512,
        )

    def test_depthwise_bit_exact(self, depthwise, config, rng):
        schedule = schedule_layer(depthwise, config)
        run = CycleSimulator(config).run_layer(
            compile_schedule(schedule), *random_layer_operands(depthwise, rng),
            check_golden=True,
        )
        assert run.useful_maccs == depthwise.maccs

    def test_grouped_bit_exact(self, grouped, config, rng):
        schedule = schedule_layer(grouped, config)
        CycleSimulator(config).run_layer(
            compile_schedule(schedule), *random_layer_operands(grouped, rng),
            check_golden=True,
        )

    def test_depthwise_cannot_use_d2(self, depthwise, config):
        schedule = schedule_layer(depthwise, config)
        assert schedule.mapping.level_product("D2") == 1


class TestMobileNet:
    def test_literature_scale(self):
        net = build_mobilenet_v1()
        assert net.weight_words == pytest.approx(4.21e6, rel=0.02)
        assert net.accelerated_maccs == pytest.approx(569e6, rel=0.02)

    def test_block_structure(self):
        net = build_mobilenet_v1()
        dws = [l for l in net.accelerated_layers()
               if getattr(l, "groups", 1) > 1]
        assert len(dws) == 13
        assert all(l.groups == l.in_channels == l.out_channels for l in dws)

    def test_spatial_chain(self):
        net = build_mobilenet_v1()
        convs = [l for l in net.accelerated_layers() if hasattr(l, "out_h")]
        assert convs[0].out_h == 112
        assert convs[-1].out_h == 7
