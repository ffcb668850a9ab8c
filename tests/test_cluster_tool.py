"""Cluster CLI: golden output, determinism, argument validation."""

from pathlib import Path

import pytest

from repro.errors import FTDLError
from repro.tools.cluster import (
    assign_tenants,
    build_parser,
    main,
    parse_tenants,
)
from repro.serving.request import make_requests, poisson_arrivals

GOLDEN = Path(__file__).parent / "golden" / "cluster_smoke.txt"

#: The exact invocation the golden file was generated with (also run by
#: the CI cluster-smoke job).
GOLDEN_ARGS = [
    "--model", "SmallCNN", "--grid", "3,2,2",
    "--racks", "2", "--boards-per-rack", "3",
    "--rate", "20000", "--requests", "800", "--seed", "11",
    "--tenants", "alpha:2,beta:1", "--quota", "64",
    "--rack-loss-rate", "30", "--mean-rack-repair-s", "0.01",
    "--partition-rate", "10", "--correlated-dram-rate", "10",
    "--crash-rate", "20", "--bitflip-rate", "40",
    "--autoscale", "--integrity", "detect-correct",
    "--deadline-ms", "25", "--slo-ms", "15",
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
        args = [a if a != "11" else "12" for a in GOLDEN_ARGS]
        assert main(args) == 0
        assert capsys.readouterr().out != GOLDEN.read_text()

    def test_golden_holds_accounting_identity(self):
        text = GOLDEN.read_text()
        assert "accounting identity   : HOLDS" in text
        assert "VIOLAT" not in text


class TestCliSurface:
    FAST = [
        "--grid", "3,2,2", "--racks", "1", "--boards-per-rack", "2",
        "--rate", "2000", "--requests", "100", "--seed", "3",
    ]

    def test_reports_campaign_metrics(self, capsys):
        assert main(self.FAST + ["--rack-loss-rate", "10"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "accounting identity" in out
        assert "cold start" in out
        assert "fleet" in out

    def test_zero_rates_run_clean(self, capsys):
        assert main(self.FAST + [
            "--rack-loss-rate", "0", "--crash-rate", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "100.0000%" in out
        assert "HOLDS" in out

    def test_bad_tenant_spec_is_error(self, capsys):
        assert main(self.FAST + ["--tenants", ":2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_rate_is_error(self, capsys):
        assert main(self.FAST + ["--rack-loss-rate", "-1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "NotAModel"])

    def test_defaults_parse(self):
        args = build_parser().parse_args([])
        assert args.model == "SmallCNN"
        assert args.racks == 4
        assert args.boards_per_rack == 4
        assert args.tenants == ""
        assert not args.autoscale


class TestTenantHelpers:
    def test_parse_tenants(self):
        assert parse_tenants("alpha:2,beta:1") == {
            "alpha": 2.0, "beta": 1.0,
        }
        assert parse_tenants("solo") == {"solo": 1.0}
        assert parse_tenants("") == {}
        assert parse_tenants("a:1, b:3 ,") == {"a": 1.0, "b": 3.0}

    def test_parse_tenants_rejects_nameless(self):
        with pytest.raises(FTDLError):
            parse_tenants(":2")

    def test_assign_tenants_is_weight_proportional(self):
        requests = make_requests(
            poisson_arrivals(1000.0, 300, seed=0), "m",
        )
        assign_tenants(requests, {"heavy": 2.0, "light": 1.0})
        counts = {"heavy": 0, "light": 0}
        for request in requests:
            counts[request.tenant] += 1
        assert counts == {"heavy": 200, "light": 100}

    def test_assign_tenants_deterministic(self):
        a = make_requests(poisson_arrivals(1000.0, 50, seed=0), "m")
        b = make_requests(poisson_arrivals(1000.0, 50, seed=0), "m")
        assign_tenants(a, {"x": 1.0, "y": 3.0})
        assign_tenants(b, {"x": 1.0, "y": 3.0})
        assert [r.tenant for r in a] == [r.tenant for r in b]

    def test_assign_tenants_noop_without_weights(self):
        requests = make_requests(poisson_arrivals(1000.0, 5, seed=0), "m")
        assign_tenants(requests, {})
        assert all(r.tenant == "default" for r in requests)
