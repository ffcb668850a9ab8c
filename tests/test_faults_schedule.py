"""Fault events, schedules, and the structured fault errors."""

import math

import pytest

from repro.errors import FaultError, FTDLError, RetryExhaustedError, ServingError
from repro.faults import (
    DramBitFlip,
    FaultSchedule,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
    generate_fault_schedule,
)
from repro.overlay.config import OverlayConfig


class TestFaultErrors:
    def test_fault_error_hierarchy(self):
        assert issubclass(FaultError, FTDLError)
        assert issubclass(RetryExhaustedError, FaultError)

    def test_fault_error_context_appended(self):
        err = FaultError("tile died", replica="overlay1", at_s=0.125)
        assert err.replica == "overlay1"
        assert err.at_s == 0.125
        assert "overlay1" in str(err)
        assert "0.125" in str(err)

    def test_fault_error_context_optional(self):
        err = FaultError("generic")
        assert err.replica is None
        assert err.at_s is None
        assert str(err) == "generic"

    def test_retry_exhausted_carries_request(self):
        err = RetryExhaustedError(
            "gave up", request_id=42, attempts=3, replica="overlay0"
        )
        assert err.request_id == 42
        assert err.attempts == 3
        assert isinstance(err, FaultError)

    def test_fault_error_distinct_from_serving_error(self):
        # The serving engine distinguishes fault-path failures from
        # plain configuration errors.
        assert not issubclass(FaultError, ServingError)


class TestFaultEvents:
    def test_kinds(self):
        assert TPEFault(0.0, "r", 0, 0, 0, stuck=True).kind == "tpe_stuck"
        assert TPEFault(0.0, "r", 0, 0, 0, stuck=False).kind == "tpe_transient"
        assert DramBitFlip(0.0, "r", correctable=True).kind == "dram_ecc"
        assert DramBitFlip(0.0, "r", correctable=False).kind == \
            "dram_uncorrectable"
        assert LinkFault(0.0, "r").kind == "link"
        assert ReplicaCrash(0.0, "r").kind == "crash"
        assert ReplicaSlowdown(0.0, "r").kind == "slowdown"
        assert ReplicaRecovery(0.0, "r").kind == "recovery"

    def test_tpe_coord(self):
        fault = TPEFault(1.0, "r", sb_row=3, sb_col=1, chain_pos=2)
        assert fault.coord == (3, 1, 2)

    @pytest.mark.parametrize("at_s", [-1.0, math.nan, math.inf])
    def test_invalid_timestamp(self, at_s):
        with pytest.raises(FaultError):
            ReplicaCrash(at_s, "r")

    def test_empty_replica_rejected(self):
        with pytest.raises(FaultError):
            ReplicaCrash(0.0, "")

    def test_negative_coordinate_rejected(self):
        with pytest.raises(FaultError):
            TPEFault(0.0, "r", sb_row=-1, sb_col=0, chain_pos=0)

    @pytest.mark.parametrize("factor", [0.5, 0.0, math.nan])
    def test_slowdown_factor_validated(self, factor):
        with pytest.raises(FaultError):
            ReplicaSlowdown(0.0, "r", factor=factor)

    def test_events_frozen(self):
        crash = ReplicaCrash(0.0, "r")
        with pytest.raises(Exception):
            crash.at_s = 1.0  # type: ignore[misc]


class TestFaultSchedule:
    def test_from_events_sorts(self):
        sched = FaultSchedule.from_events([
            ReplicaRecovery(2.0, "a"),
            ReplicaCrash(1.0, "a"),
            LinkFault(1.5, "b"),
        ])
        assert [e.at_s for e in sched.events] == [1.0, 1.5, 2.0]

    def test_unsorted_constructor_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule(events=(
                ReplicaCrash(2.0, "a"), ReplicaCrash(1.0, "a"),
            ))

    def test_counts_and_describe(self):
        sched = FaultSchedule.from_events([
            ReplicaCrash(1.0, "a"),
            ReplicaCrash(2.0, "b"),
            LinkFault(3.0, "a"),
        ])
        assert sched.counts() == {"crash": 2, "link": 1}
        assert "crash=2" in sched.describe()

    def test_empty_schedule_ok(self):
        sched = FaultSchedule(events=())
        assert len(sched) == 0
        assert "none" in sched.describe()


class TestGenerateFaultSchedule:
    KW = dict(duration_s=1.0, replicas=["r0", "r1"],
              crash_rate_hz=5.0, slowdown_rate_hz=2.0,
              bitflip_rate_hz=10.0, link_fault_rate_hz=1.0)

    def test_identical_seed_bit_identical(self):
        a = generate_fault_schedule(seed=3, **self.KW)
        b = generate_fault_schedule(seed=3, **self.KW)
        assert a == b

    def test_seed_changes_schedule(self):
        a = generate_fault_schedule(seed=3, **self.KW)
        b = generate_fault_schedule(seed=4, **self.KW)
        assert a != b

    def test_crashes_paired_with_recoveries(self):
        sched = generate_fault_schedule(
            seed=0, duration_s=2.0, replicas=["r0"], crash_rate_hz=10.0
        )
        counts = sched.counts()
        assert counts.get("crash", 0) > 0
        assert counts["recovery"] == counts["crash"]

    def test_tpe_faults_respect_grid(self):
        config = OverlayConfig(d1=3, d2=2, d3=2)
        sched = generate_fault_schedule(
            seed=1, duration_s=2.0, replicas=["r0"], grid=config,
            tpe_fault_rate_hz=20.0,
        )
        tpe = [e for e in sched.events if isinstance(e, TPEFault)]
        assert tpe
        for fault in tpe:
            row, col, pos = fault.coord
            assert 0 <= row < config.d3
            assert 0 <= col < config.d2
            assert 0 <= pos < config.d1

    def test_tpe_rate_without_grid_rejected(self):
        with pytest.raises(FaultError):
            generate_fault_schedule(
                seed=0, duration_s=1.0, replicas=["r"],
                tpe_fault_rate_hz=1.0,
            )

    def test_zero_rates_yield_empty_schedule(self):
        sched = generate_fault_schedule(
            seed=0, duration_s=1.0, replicas=["r"]
        )
        assert len(sched) == 0

    @pytest.mark.parametrize("kwargs", [
        dict(duration_s=0.0, replicas=["r"]),
        dict(duration_s=math.nan, replicas=["r"]),
        dict(duration_s=1.0, replicas=[]),
        dict(duration_s=1.0, replicas=["r", "r"]),
        dict(duration_s=1.0, replicas=["r"], crash_rate_hz=-1.0),
        dict(duration_s=1.0, replicas=["r"], crash_rate_hz=math.nan),
        dict(duration_s=1.0, replicas=["r"], stuck_fraction=1.5),
        dict(duration_s=1.0, replicas=["r"], correctable_fraction=-0.1),
    ])
    def test_invalid_args(self, kwargs):
        with pytest.raises(FaultError):
            generate_fault_schedule(seed=0, **kwargs)

    def test_grid_accepts_plain_tuple(self):
        sched = generate_fault_schedule(
            seed=5, duration_s=1.0, replicas=["r"], grid=(3, 2, 2),
            tpe_fault_rate_hz=10.0,
        )
        assert any(isinstance(e, TPEFault) for e in sched.events)


class TestScheduleValidation:
    """Satellite of the integrity PR: schedules are checked against the
    overlay they will strike, so injection campaigns fail fast on
    impossible coordinates instead of silently missing."""

    GRID = OverlayConfig(d1=3, d2=2, d3=2)

    def test_out_of_grid_tpe_coord_rejected(self):
        bad = TPEFault(0.5, "r0", sb_row=2, sb_col=0, chain_pos=0,
                       stuck=False)
        with pytest.raises(FaultError) as err:
            FaultSchedule.from_events([bad], grid=self.GRID)
        assert err.value.replica == "r0"
        assert err.value.at_s == 0.5
        assert "2x2" in str(err.value)

    @pytest.mark.parametrize("coord", [(0, 2, 0), (0, 0, 3), (1, 5, 9)])
    def test_each_axis_is_checked(self, coord):
        row, col, pos = coord
        bad = TPEFault(0.1, "r0", sb_row=row, sb_col=col, chain_pos=pos)
        with pytest.raises(FaultError):
            FaultSchedule.from_events([bad], grid=(3, 2, 2))

    def test_in_grid_coords_pass_and_chain(self):
        ok = TPEFault(0.1, "r0", sb_row=1, sb_col=1, chain_pos=2)
        sched = FaultSchedule.from_events([ok], grid=self.GRID)
        assert sched.validate_against(grid=(3, 2, 2)) is sched

    def test_word_addr_beyond_operand_space_rejected(self):
        bad = DramBitFlip(0.2, "r0", correctable=False, word_addr=64)
        with pytest.raises(FaultError) as err:
            FaultSchedule.from_events([bad], dram_words=64)
        assert "64-word operand space" in str(err.value)
        assert err.value.at_s == 0.2

    def test_unpinned_word_addr_passes(self):
        sched = FaultSchedule.from_events(
            [DramBitFlip(0.2, "r0", correctable=False)], dram_words=4
        )
        assert len(sched) == 1

    def test_nonpositive_dram_words_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule.from_events([], dram_words=0)

    def test_negative_word_addr_rejected_at_event(self):
        with pytest.raises(FaultError):
            DramBitFlip(0.1, "r0", correctable=False, word_addr=-1)

    def test_generated_word_addrs_stay_in_range(self):
        sched = generate_fault_schedule(
            seed=3, duration_s=2.0, replicas=["r0", "r1"],
            bitflip_rate_hz=40.0, correctable_fraction=0.5,
            dram_words=17,
        )
        flips = [e for e in sched.events if isinstance(e, DramBitFlip)]
        assert flips
        assert all(f.word_addr is not None and 0 <= f.word_addr < 17
                   for f in flips)

    def test_unset_dram_words_preserves_legacy_stream(self):
        # Backwards compatibility: without dram_words the generator must
        # not consume extra RNG draws, so seeded schedules from before
        # the integrity PR replay bit for bit (word_addr stays None).
        a = generate_fault_schedule(
            seed=9, duration_s=1.0, replicas=["r"], bitflip_rate_hz=30.0,
        )
        b = generate_fault_schedule(
            seed=9, duration_s=1.0, replicas=["r"], bitflip_rate_hz=30.0,
        )
        assert a.events == b.events
        assert all(e.word_addr is None for e in a.events
                   if isinstance(e, DramBitFlip))

    def test_generator_validates_its_own_output(self):
        # The generator wires grid/dram_words straight into
        # validate_against, so its own draws can never be out of range.
        sched = generate_fault_schedule(
            seed=1, duration_s=1.0, replicas=["r"], grid=self.GRID,
            tpe_fault_rate_hz=20.0, bitflip_rate_hz=20.0, dram_words=8,
        )
        assert sched.validate_against(grid=self.GRID, dram_words=8) is sched


class TestMerge:
    """Satellite of the cluster PR: deterministic schedule composition."""

    def test_empty_merge(self):
        assert FaultSchedule.merge() == FaultSchedule(events=())
        empty = FaultSchedule(events=())
        assert FaultSchedule.merge(empty, empty).events == ()

    def test_orders_by_time_replica_kind(self):
        a = FaultSchedule.from_events([
            ReplicaCrash(1.0, "b"), LinkFault(3.0, "a"),
        ])
        b = FaultSchedule.from_events([
            ReplicaCrash(1.0, "a"), ReplicaRecovery(2.0, "b"),
        ])
        merged = FaultSchedule.merge(a, b)
        assert [(e.at_s, e.replica, e.kind) for e in merged.events] == [
            (1.0, "a", "crash"), (1.0, "b", "crash"),
            (2.0, "b", "recovery"), (3.0, "a", "link"),
        ]

    def test_stable_for_identical_keys(self):
        # Same (at_s, replica, kind): argument order is the tiebreak.
        first = ReplicaSlowdown(1.0, "r", factor=2.0)
        second = ReplicaSlowdown(1.0, "r", factor=8.0)
        merged = FaultSchedule.merge(
            FaultSchedule.from_events([first]),
            FaultSchedule.from_events([second]),
        )
        assert merged.events[0].factor == 2.0
        assert merged.events[1].factor == 8.0

    def test_preserves_generated_streams_byte_for_byte(self):
        a = generate_fault_schedule(
            seed=1, duration_s=1.0, replicas=["a0", "a1"],
            crash_rate_hz=6.0, bitflip_rate_hz=10.0,
        )
        b = generate_fault_schedule(
            seed=2, duration_s=1.0, replicas=["b0"],
            crash_rate_hz=6.0, slowdown_rate_hz=4.0,
        )
        merged = FaultSchedule.merge(a, b)
        assert len(merged) == len(a) + len(b)
        assert [e for e in merged.events if e.replica.startswith("a")] \
            == list(a.events)
        assert [e for e in merged.events if e.replica.startswith("b")] \
            == list(b.events)

    def test_merge_is_deterministic_and_associative_for_distinct_keys(self):
        a = generate_fault_schedule(
            seed=3, duration_s=1.0, replicas=["a"], crash_rate_hz=9.0)
        b = generate_fault_schedule(
            seed=4, duration_s=1.0, replicas=["b"], crash_rate_hz=9.0)
        c = generate_fault_schedule(
            seed=5, duration_s=1.0, replicas=["c"], link_fault_rate_hz=9.0)
        left = FaultSchedule.merge(FaultSchedule.merge(a, b), c)
        right = FaultSchedule.merge(a, FaultSchedule.merge(b, c))
        assert left == right
        assert FaultSchedule.merge(a, b, c) == left

    def test_merged_schedule_is_valid_input(self):
        merged = FaultSchedule.merge(
            FaultSchedule.from_events([ReplicaCrash(1.0, "r")]),
            FaultSchedule.from_events([ReplicaRecovery(2.0, "r")]),
        )
        # from_events-style invariants hold on the result.
        assert merged.counts() == {
            "crash": 1, "recovery": 1,
        }
