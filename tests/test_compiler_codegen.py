"""Instruction generation and the schedule cache."""

import pytest

from repro.compiler.cache import ScheduleCache, layer_signature
from repro.compiler.codegen import compile_schedule
from repro.compiler.hwsearch import feasible_grids, search_hardware_config
from repro.compiler.search import rank_key, schedule_layer
from repro.errors import ScheduleError
from repro.fpga.devices import get_device
from repro.overlay.config import OverlayConfig
from repro.overlay.isa import OpKind, decode_instruction
from repro.workloads.layers import ConvLayer, MatMulLayer


class TestCodegen:
    def test_row_program_structure(self, small_conv, tiny_config):
        compiled = compile_schedule(schedule_layer(small_conv, tiny_config))
        assert compiled.n_rows == compiled.schedule.mapping.level_product("D3")
        for program in compiled.row_programs:
            assert program[0].op == OpKind.LOAD_WEIGHT
            assert program[-1].op == OpKind.COMPUTE
            assert program[-1].last

    def test_compute_trips_match_mapping(self, small_conv, tiny_config):
        schedule = schedule_layer(small_conv, tiny_config)
        compute = compile_schedule(schedule).row_programs[0][-1]
        assert (compute.x, compute.l, compute.t) == (
            schedule.mapping.x, schedule.mapping.l, schedule.mapping.t
        )

    def test_tile_words_match_estimate(self, small_conv, tiny_config):
        schedule = schedule_layer(small_conv, tiny_config)
        compute = compile_schedule(schedule).row_programs[0][-1]
        assert compute.act_tile_words == schedule.estimate.actbuf_words
        assert compute.psum_tile_words == schedule.estimate.psumbuf_words

    def test_encoded_stream_round_trips(self, small_conv, tiny_config):
        compiled = compile_schedule(schedule_layer(small_conv, tiny_config))
        for raw, program in zip(compiled.encoded(), compiled.row_programs):
            assert len(raw) == 16 * len(program)
            decoded = [
                decode_instruction(raw[i:i + 16])
                for i in range(0, len(raw), 16)
            ]
            assert tuple(decoded) == program

    def test_double_buffer_flag_propagates(self, small_conv):
        config = OverlayConfig(
            d1=3, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512, double_buffer=False,
        )
        compiled = compile_schedule(schedule_layer(small_conv, config))
        assert not compiled.row_programs[0][-1].double_buffer


class TestScheduleCache:
    def test_signature_distinguishes_shapes(self):
        a = ConvLayer("a", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3)
        b = ConvLayer("b", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3, stride=2)
        assert layer_signature(a) != layer_signature(b)

    def test_signature_ignores_names(self):
        a = ConvLayer("a", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3)
        b = ConvLayer("b", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3)
        assert layer_signature(a) == layer_signature(b)

    def test_cache_hit_reuses_search(self, tiny_config):
        cache = ScheduleCache(tiny_config)
        a = ConvLayer("a", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3)
        b = ConvLayer("b", 4, 8, in_h=8, in_w=8, kernel_h=3, kernel_w=3)
        first = cache.schedule(a)
        second = cache.schedule(b)
        assert cache.misses == 1 and cache.hits == 1
        assert second.cycles == first.cycles
        assert second.layer is b  # rebound to the requesting layer

    def test_mm_and_conv_cached_separately(self, tiny_config, small_mm, small_conv):
        cache = ScheduleCache(tiny_config)
        cache.schedule(small_mm)
        cache.schedule(small_conv)
        assert cache.misses == 2


class TestHardwareSearch:
    def test_feasible_grids_product(self):
        for grid in feasible_grids(24):
            assert grid[0] * grid[1] * grid[2] == 24

    def test_device_constraints_prune(self):
        device = get_device("vu125")
        grids = feasible_grids(1200, device)
        assert all(d2 <= 5 and d1 * d3 <= 240 for d1, d2, d3 in grids)
        assert (12, 5, 20) in grids

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ScheduleError):
            feasible_grids(0)

    def test_objective3_finds_best_grid(self, small_conv):
        base = OverlayConfig(
            d1=4, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512,
        )
        result = search_hardware_config(
            small_conv, base,
            cache=ScheduleCache(base, spatial_beam=30, temporal_beam=30),
        )
        assert result.best.config.n_tpe == 16
        cycles = [s.estimate.c_exe for _, s in result.ranking]
        assert cycles == sorted(cycles)
        assert result.best.estimate.c_exe == cycles[0]

    @pytest.mark.parametrize("objective", ["performance", "balance"])
    def test_objective3_ranks_grids_as_candidates(self, small_mm, objective):
        """Grids rank by (rank_key, enumeration index), largest first:
        an exact tie goes to the later grid, as it does for candidates."""
        base = OverlayConfig(d1=2, d2=2, d3=2)
        result = search_hardware_config(
            small_mm, base, cache=ScheduleCache(base, objective=objective)
        )
        grids = feasible_grids(base.n_tpe)

        def key(item):
            est = item[1].estimate
            return (*rank_key(objective, est.c_exe, est.e_wbuf, est.score),
                    grids.index(item[0]))

        assert list(result.ranking) == sorted(
            result.ranking, key=key, reverse=True)
        assert sorted(grid for grid, _ in result.ranking) == sorted(grids)
        assert result.best is result.ranking[0][1]

    def test_objective3_tie_goes_to_later_grid(self, small_mm):
        """(1, 1, 8) and (1, 2, 4) tie at 127 cycles with E_WBUF 1.0 on
        2x2x2; the later-enumerated (1, 2, 4) wins."""
        base = OverlayConfig(d1=2, d2=2, d3=2)
        result = search_hardware_config(small_mm, base)
        assert [grid for grid, _ in result.ranking[:2]] == [
            (1, 2, 4), (1, 1, 8)]
        assert result.best.config.grid == (1, 2, 4)

    def test_objective3_at_least_matches_base_grid(self, small_conv):
        """The sweep includes the base grid, so the winner is never worse."""
        base = OverlayConfig(
            d1=4, d2=2, d3=2, s_actbuf_words=64,
            s_wbuf_words=256, s_psumbuf_words=512,
        )
        from repro.compiler.search import ScheduleSearch
        base_best = ScheduleSearch(
            small_conv, base, spatial_beam=30, temporal_beam=30
        ).run()[0]
        result = search_hardware_config(
            small_conv, base,
            cache=ScheduleCache(base, spatial_beam=30, temporal_beam=30),
        )
        assert result.best.estimate.c_exe <= base_best.estimate.c_exe
