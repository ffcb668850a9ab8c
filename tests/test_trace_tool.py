"""Trace CLI: golden output, determinism, export files, validation."""

import json
from pathlib import Path

import pytest

from repro.tools.trace import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "trace_smoke.txt"

#: The exact invocation the golden file was generated with (also run by
#: the CI trace-smoke job).
GOLDEN_ARGS = [
    "--grid", "3,2,2", "--replicas", "2", "--rate", "1200",
    "--requests", "150", "--seed", "11", "--crash-rate", "8",
    "--deadline-ms", "40",
]


class TestGolden:
    def test_matches_checked_in_golden(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_bit_identical_across_runs(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        first = capsys.readouterr().out
        assert main(GOLDEN_ARGS) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_output(self, capsys):
        args = [a if a != "11" else "12" for a in GOLDEN_ARGS]
        assert main(args) == 0
        assert capsys.readouterr().out != GOLDEN.read_text()

    def test_golden_reconciles(self):
        """Every cross-check in the pinned run must read 'ok'."""
        text = GOLDEN.read_text()
        assert "MISMATCH" not in text
        assert text.count("ok") >= 5
        assert "well-formed      : ok" in text


class TestExports:
    def test_chrome_out_parses_and_matches_summary(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        assert main([
            "--grid", "3,2,2", "--requests", "30", "--seed", "3",
            "--chrome-out", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(chrome.read_text())
        events = doc["traceEvents"]
        assert f"chrome trace     : {len(events)} events" in out
        assert {"compiler [step]", "serving [s]"} == {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }

    def test_prom_out_written(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main([
            "--grid", "3,2,2", "--requests", "30", "--seed", "3",
            "--prom-out", str(prom),
        ]) == 0
        text = prom.read_text()
        assert "# TYPE serving_request_latency_s histogram" in text
        assert "# TYPE search_candidates_evaluated counter" in text
        # The file is exactly the exposition echoed on stdout.
        assert text.rstrip("\n") in capsys.readouterr().out


class TestCliSurface:
    def test_invalid_rate_is_error(self, capsys):
        assert main(["--grid", "3,2,2", "--requests", "10",
                     "--crash-rate", "-1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "NotAModel"])

    def test_defaults_parse(self):
        args = build_parser().parse_args([])
        assert args.model == "SmallCNN"
        assert args.seed == 0
        assert args.chrome_out is None
        assert args.prom_out is None
