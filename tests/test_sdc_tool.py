"""SDC CLI: golden output, determinism, argument validation."""

from pathlib import Path

from repro.tools.sdc import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "sdc_smoke.txt"

#: The exact invocation the golden file was generated with (also run by
#: the CI sdc-smoke job).
GOLDEN_ARGS = ["--seed", "7"]

#: Cheap settings for the non-golden CLI tests.
FAST_ARGS = [
    "--trials", "5", "--requests", "40", "--rate", "1200",
    "--tpe-fault-rate", "10", "--bitflip-rate", "20",
]


class TestGolden:
    def test_matches_checked_in_golden(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        out = capsys.readouterr().out
        assert out == GOLDEN.read_text()

    def test_bit_identical_across_runs(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        first = capsys.readouterr().out
        assert main(GOLDEN_ARGS) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_report(self, capsys):
        assert main(["--seed", "8"]) == 0
        assert capsys.readouterr().out != GOLDEN.read_text()


class TestCliSurface:
    def test_reports_all_three_sections(self, capsys):
        assert main(FAST_ARGS + ["--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "compiler model vs measured" in out
        assert "kernel campaign" in out
        assert "serving integration" in out
        assert "counters reconcile" in out

    def test_policy_subset_respected(self, capsys):
        assert main(FAST_ARGS + ["--policies", "detect"]) == 0
        out = capsys.readouterr().out
        assert "policy detect " in out
        assert "detect-reexecute" not in out

    def test_unknown_policy_is_error(self, capsys):
        assert main(["--policies", "paranoid"]) == 1
        assert "paranoid" in capsys.readouterr().err

    def test_empty_policies_is_error(self, capsys):
        assert main(["--policies", ","]) == 1
        assert "no integrity policies" in capsys.readouterr().err

    def test_nonpositive_trials_is_error(self, capsys):
        assert main(["--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_defaults_parse(self):
        args = build_parser().parse_args([])
        assert args.seed == 0
        assert args.trials == 100
        assert args.grid is None
        assert args.serving_grid == "3,2,2"
        assert args.policies == "off,detect,detect-reexecute,detect-correct"
