"""The mapping-vector search: feasibility, optimality ordering, objectives."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.cache import ScheduleCache
from repro.compiler.constraints import check_constraints
from repro.compiler.search import (
    ScheduleSearch,
    ceil_tile_candidates,
    schedule_layer,
)
from repro.errors import ScheduleError
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer


class TestCeilTileCandidates:
    @pytest.mark.parametrize(
        "size,cap,expected",
        [
            (8, 8, [1, 2, 3, 4, 8]),
            (1, 8, [1]),
            (7, 3, [1, 2, 3]),
            (14, 20, [1, 2, 3, 4, 5, 7, 14]),
        ],
    )
    def test_values(self, size, cap, expected):
        assert ceil_tile_candidates(size, cap) == expected

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ScheduleError):
            ceil_tile_candidates(0, 4)

    @given(size=st.integers(1, 500), cap=st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_every_candidate_is_a_ceil_divisor(self, size, cap):
        for tile in ceil_tile_candidates(size, cap):
            assert 1 <= tile <= min(size, cap)
            m = -(-size // tile)
            assert -(-size // m) == tile  # tile is the minimal cover for m

    @given(size=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_contains_one_and_terminates(self, size):
        values = ceil_tile_candidates(size, size)
        assert values[0] == 1
        assert values[-1] == size


class TestSearchBasics:
    def test_winner_is_feasible(self, small_conv, tiny_config):
        schedule = schedule_layer(small_conv, tiny_config)
        assert check_constraints(small_conv, tiny_config, schedule.mapping) == []

    def test_winner_covers_all_maccs(self, small_conv, tiny_config):
        schedule = schedule_layer(small_conv, tiny_config)
        padded = schedule.mapping.padded_sizes()
        for name, size in small_conv.loop_sizes.items():
            assert padded[name] >= size

    def test_topk_sorted_best_first(self, small_conv, tiny_config):
        schedules = ScheduleSearch(
            small_conv, tiny_config, top_k=10
        ).run()
        cycles = [s.cycles for s in schedules]
        assert cycles == sorted(cycles)
        assert len(schedules) == 10

    def test_estimates_match_authoritative_model(self, tiny_config):
        """The array pricer equals evaluate_mapping on every candidate.

        Every candidate of every spatial choice is priced in one batched
        pass, then materialized as full mapping vectors and re-priced by
        the scalar model; ``c_exe``, ``e_wbuf``
        and the balance score must agree exactly, not approximately.
        """
        layers = [
            ConvLayer("conv", 6, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3,
                      padding=1),
            ConvLayer("grouped", 8, 12, in_h=9, in_w=7, kernel_h=3,
                      kernel_w=3, stride=2, padding=1, groups=4),
            MatMulLayer("fc", in_features=48, out_features=20, batch=1),
            MatMulLayer("score", in_features=16, out_features=12, batch=10,
                        weight_source="k"),
        ]
        configs = [
            tiny_config,
            replace(tiny_config, double_buffer=False),
            replace(tiny_config, weights_resident=True),
            replace(tiny_config, double_pump=False),
            replace(tiny_config, actbus_words_per_cycle=2.5,
                    psumbus_words_per_cycle=3.0, dram_rd_gbps=5.0),
        ]
        for layer in layers:
            for config in configs:
                search = ScheduleSearch(
                    layer, config, spatial_beam=12, temporal_beam=40
                )
                spatials = search._spatial_choices()
                rems = -(-np.array(search._sizes) // spatials.prod(axis=1))
                distinct, which = np.unique(rems, axis=0, return_inverse=True)
                which = which.reshape(-1)
                table = search._combo_tables(distinct)
                rows, choice = table.rows(which)
                columns = search._price(spatials, table, rows, choice)
                for row, spatial, fast in zip(
                    rows.tolist(), choice.tolist(),
                    zip(*(column.tolist() for column in columns)),
                ):
                    est = search._materialize(
                        spatials[spatial], distinct[which[spatial]], table, row
                    ).estimate
                    assert fast == (est.c_exe, est.e_wbuf, est.score), (
                        layer.name, config, row
                    )
                assert len(rows) > 100

    def test_mm_layer_schedules(self, small_mm, tiny_config):
        schedule = schedule_layer(small_mm, tiny_config)
        assert schedule.estimate.hardware_efficiency > 0.0

    def test_pointwise_conv_schedules(self, pointwise_conv, tiny_config):
        schedule = schedule_layer(pointwise_conv, tiny_config)
        assert check_constraints(
            pointwise_conv, tiny_config, schedule.mapping
        ) == []

    def test_strided_conv_schedules(self, strided_conv, tiny_config):
        schedule = schedule_layer(strided_conv, tiny_config)
        assert schedule.estimate.useful_maccs == strided_conv.maccs

    def test_single_tpe_config(self, small_mm):
        config = OverlayConfig(
            d1=1, d2=1, d3=1, s_actbuf_words=64,
            s_wbuf_words=512, s_psumbuf_words=128,
        )
        schedule = schedule_layer(small_mm, config)
        # One TPE: at least maccs cycles (double-pump stall may double it).
        assert schedule.cycles >= small_mm.maccs

    def test_unknown_objective_rejected(self, small_mm, tiny_config):
        with pytest.raises(ScheduleError, match="unknown objective"):
            ScheduleSearch(small_mm, tiny_config, objective="fastest")

    def test_bad_topk_rejected(self, small_mm, tiny_config):
        with pytest.raises(ScheduleError, match="top_k"):
            ScheduleSearch(small_mm, tiny_config, top_k=0)

    @pytest.mark.parametrize("width", [0, -1, -160])
    @pytest.mark.parametrize("name", ["spatial_beam", "temporal_beam"])
    def test_bad_beam_rejected(self, small_conv, tiny_config, name, width):
        """A beam of 0 would search nothing and a negative one would slice
        choices off the end of the ranking: both are errors that name
        the argument, in the search and in the cache."""
        with pytest.raises(ScheduleError, match=name):
            ScheduleSearch(small_conv, tiny_config, **{name: width})
        with pytest.raises(ScheduleError, match=name):
            ScheduleCache(tiny_config, **{name: width})

    @pytest.mark.parametrize(
        "value", [2.5, 1.0, float("nan"), True, "3"],
        ids=["fraction", "integral-float", "nan", "bool", "str"],
    )
    @pytest.mark.parametrize("name", ["top_k", "spatial_beam", "temporal_beam"])
    def test_non_integer_sizes_rejected(
        self, small_conv, tiny_config, name, value
    ):
        """Only integers are counts: a fraction would reach a slice index
        and crash, nan compares false with everything and would lift the
        bound, and True would count as 1."""
        with pytest.raises(ScheduleError, match=name):
            ScheduleSearch(small_conv, tiny_config, **{name: value})
        if name != "top_k":
            with pytest.raises(ScheduleError, match=name):
                ScheduleCache(tiny_config, **{name: value})

    def test_numpy_integer_sizes_accepted(self, small_conv, tiny_config):
        search = ScheduleSearch(
            small_conv, tiny_config, top_k=np.int64(2),
            spatial_beam=np.int32(4), temporal_beam=np.int64(3),
        )
        assert len(search.run()) == 2

    def test_edge_beams_accepted(self, small_conv, tiny_config):
        search = ScheduleSearch(
            small_conv, tiny_config, spatial_beam=1, temporal_beam=1
        )
        assert len(search.run()) == 1
        assert search.candidates_evaluated == 1
        assert search.spatial_beam_dropped == search.spatial_enumerated - 1
        cache = ScheduleCache(tiny_config, spatial_beam=None,
                              temporal_beam=1)
        assert cache.schedule(small_conv).cycles > 0

    def test_describe_is_informative(self, small_conv, tiny_config):
        text = schedule_layer(small_conv, tiny_config).describe()
        assert "cycles" in text and "E_WBUF" in text


class TestObjectives:
    def test_balance_improves_e_wbuf(self, tiny_config):
        """Objective 2 trades a little time for much better WBUF use
        (the Fig. 7(a) vs (b) contrast) — never a worse score."""
        layer = ConvLayer(
            "c", 8, 16, in_h=12, in_w=12, kernel_h=3, kernel_w=3, padding=1
        )
        perf = schedule_layer(layer, tiny_config, objective="performance")
        bal = schedule_layer(layer, tiny_config, objective="balance")
        assert bal.estimate.score >= perf.estimate.score
        assert bal.estimate.e_wbuf >= perf.estimate.e_wbuf

    def test_performance_never_slower_than_balance(self, tiny_config):
        layer = ConvLayer(
            "c", 8, 16, in_h=12, in_w=12, kernel_h=3, kernel_w=3, padding=1
        )
        perf = schedule_layer(layer, tiny_config, objective="performance")
        bal = schedule_layer(layer, tiny_config, objective="balance")
        assert perf.cycles <= bal.cycles


class TestSearchQuality:
    def test_large_conv_high_efficiency(self, small_config):
        """A reuse-rich conv should schedule at > 70 % efficiency even on a
        small grid."""
        layer = ConvLayer(
            "c", 16, 24, in_h=16, in_w=16, kernel_h=3, kernel_w=3, padding=1
        )
        schedule = schedule_layer(layer, small_config)
        assert schedule.estimate.hardware_efficiency > 0.70

    def test_exhaustive_beats_or_equals_beamed(self, tiny_config):
        layer = ConvLayer("c", 4, 6, in_h=6, in_w=6, kernel_h=3, kernel_w=3)
        beamed = ScheduleSearch(
            layer, tiny_config, spatial_beam=20, temporal_beam=20
        ).run()[0]
        full = ScheduleSearch(
            layer, tiny_config, spatial_beam=None, temporal_beam=None
        ).run()[0]
        assert full.cycles <= beamed.cycles

    def test_candidates_counted(self, small_mm, tiny_config):
        search = ScheduleSearch(small_mm, tiny_config)
        search.run()
        assert search.candidates_evaluated > 0


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(2, 24),
    n=st.integers(2, 16),
    hw=st.integers(2, 10),
    k=st.sampled_from([1, 3]),
)
def test_search_always_finds_feasible_schedule(m, n, hw, k):
    """Property: any reasonable conv layer gets a feasible schedule whose
    padded sizes cover the workload (Eqn 11)."""
    config = OverlayConfig(
        d1=3, d2=2, d3=2, s_actbuf_words=64,
        s_wbuf_words=256, s_psumbuf_words=512,
    )
    layer = ConvLayer(
        "c", in_channels=n, out_channels=m, in_h=hw, in_w=hw,
        kernel_h=k, kernel_w=k, padding=k // 2,
    )
    schedule = ScheduleSearch(
        layer, config, spatial_beam=40, temporal_beam=40
    ).run()[0]
    assert check_constraints(layer, config, schedule.mapping) == []
    assert schedule.estimate.hardware_efficiency > 0.0
