"""Chaos CLI: golden output, determinism, argument validation."""

from pathlib import Path

import pytest

from repro.tools.chaos import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "chaos_smoke.txt"

#: The exact invocation the golden file was generated with (also run by
#: the CI chaos-smoke job).
GOLDEN_ARGS = [
    "--grid", "3,2,2", "--replicas", "2", "--rate", "1500",
    "--requests", "400", "--seed", "11", "--crash-rate", "12",
    "--mean-repair-s", "0.08", "--tpe-fault-rate", "4",
    "--bitflip-rate", "20", "--slowdown-rate", "3",
    "--deadline-ms", "25", "--slo-ms", "15",
]


class TestGolden:
    def test_matches_checked_in_golden(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        out = capsys.readouterr().out
        assert out == GOLDEN.read_text()

    def test_run_and_curve_share_one_cache(self, capsys, monkeypatch):
        """The chaos run and the degradation curve compile through one
        cache: 17 searches, one per distinct (config, shape), and the
        curve's rows are those of a curve with its own cache."""
        from repro.compiler import cache as cache_module

        searched = []

        class CountingSearch(cache_module.ScheduleSearch):
            def run(self):
                searched.append(
                    (self.config, cache_module.layer_signature(self.layer))
                )
                return super().run()

        monkeypatch.setattr(cache_module, "ScheduleSearch", CountingSearch)
        assert main(GOLDEN_ARGS) == 0
        assert len(searched) == len(set(searched)) == 17
        curve = capsys.readouterr().out.split("degradation curve")[1]
        # Same seed (so same masks), no faults: a cache that holds no
        # degraded entries when the curve starts.
        assert main([
            "--grid", "3,2,2", "--requests", "20", "--seed", "11",
            "--crash-rate", "0", "--slowdown-rate", "0",
            "--tpe-fault-rate", "0", "--bitflip-rate", "0",
            "--link-fault-rate", "0",
        ]) == 0
        assert capsys.readouterr().out.split("degradation curve")[1] == curve

    def test_bit_identical_across_runs(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        first = capsys.readouterr().out
        assert main(GOLDEN_ARGS) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_report(self, capsys):
        args = [a if a != "11" else "12" for a in GOLDEN_ARGS]
        assert main(args) == 0
        assert capsys.readouterr().out != GOLDEN.read_text()


class TestCliSurface:
    def test_reports_reliability_metrics(self, capsys):
        assert main([
            "--grid", "3,2,2", "--replicas", "2", "--requests", "50",
            "--rate", "800", "--seed", "3", "--crash-rate", "6",
            "--mask-fractions", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "SLO-violation-rate" in out
        assert "MTTR" in out
        assert "degradation curve" in out

    def test_curve_can_be_skipped(self, capsys):
        assert main([
            "--grid", "3,2,2", "--requests", "20", "--seed", "0",
            "--crash-rate", "0", "--slowdown-rate", "0",
            "--tpe-fault-rate", "0", "--bitflip-rate", "0",
            "--link-fault-rate", "0", "--mask-fractions", "",
        ]) == 0
        assert "degradation curve" not in capsys.readouterr().out

    def test_invalid_fault_rate_is_error(self, capsys):
        assert main([
            "--grid", "3,2,2", "--requests", "10", "--crash-rate", "-1",
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "NotAModel"])

    def test_defaults_parse(self):
        args = build_parser().parse_args([])
        assert args.model == "SmallCNN"
        assert args.seed == 0
        assert args.deadline_ms is None
