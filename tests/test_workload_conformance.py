"""Full-stack conformance: every registered workload, every stage.

The headline harness of the workload registry: each registered network —
the paper's five Table I models plus the transformer suite — runs
through schedule search, cycle simulation against the functional golden
kernels (the per-MACC datapath walk bit-identical on small layers), one served
batch, a fault-masked recompile, ABFT detect/correct, host-kernel
determinism, and (where declared) mixed-precision evaluation.  One
report per workload; the tests then assert each stage's invariant
individually so a failure names the stage, not just the workload.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.conformance import (
    CONFORMANCE_CONFIG,
    DEFAULT_BUDGET,
    conformance_summary,
    run_workload_conformance,
)
from repro.tools.conformance import BUDGET_WORKLOADS, main
from repro.workloads import WORKLOADS, registered_workloads

ALL_NAMES = [spec.name for spec in registered_workloads()]

GOLDEN = Path(__file__).parent / "golden" / "conformance_smoke.txt"

#: The exact invocation the golden file was generated with (also run by
#: the CI conformance-smoke job).
GOLDEN_ARGS = ["--budget"]


@functools.lru_cache(maxsize=None)
def _report(name: str):
    """One conformance run per workload, shared across all tests."""
    return run_workload_conformance(WORKLOADS[name])


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryWorkload:
    def test_conformant(self, name):
        report = _report(name)
        assert report.ok, report.errors

    def test_every_accelerated_layer_scheduled(self, name):
        report = _report(name)
        if report.n_accelerated:
            assert report.model_cycles > 0
        assert report.distinct_signatures <= report.n_accelerated

    def test_simulation_bit_identical_and_conserved(self, name):
        report = _report(name)
        assert report.sim_checks, "no layer was simulated"
        # A datapath walk that diverges from the coverage proof, or a
        # useful-MACC count that does not conserve, raises in run_layer
        # and is reported as a ``sim`` error.
        assert not [e for e in report.errors if e.startswith("sim ")]
        for check in report.sim_checks:
            assert check.cycles_agree, (
                check.name, check.model_cycles, check.measured_cycles,
            )
        small = [
            c for c in report.sim_checks
            if c.maccs <= DEFAULT_BUDGET.max_reference_maccs
        ]
        if small:
            assert any(c.reference_checked for c in small)

    def test_serves_one_batch(self, name):
        report = _report(name)
        assert report.serve_batch == DEFAULT_BUDGET.batch_size
        assert report.serve_s > 0.0

    def test_recompiles_on_degraded_grid(self, name):
        report = _report(name)
        d1, d2, d3 = report.degraded_grid
        full = CONFORMANCE_CONFIG
        assert 0 < d1 * d2 * d3 < full.d1 * full.d2 * full.d3
        assert report.degraded_cycles > 0

    def test_abft_detects_and_corrects(self, name):
        report = _report(name)
        assert report.abft_layer, "no ABFT-suitable GEMM found"
        assert report.abft_psum_corrected
        assert report.abft_weight_detected

    def test_host_layers_deterministic(self, name):
        report = _report(name)
        network = WORKLOADS[name].builder()
        non_ewop = [
            layer for layer in network.host_layers()
            if layer.kind.value != "ewop"
        ]
        expected = min(len(non_ewop), DEFAULT_BUDGET.max_host_layers)
        assert report.host_checked == expected

    def test_sequential_workloads_chain_end_to_end(self, name):
        report = _report(name)
        spec = WORKLOADS[name]
        assert report.chained == spec.sequential
        if spec.sequential:
            assert report.chain_cycles > 0

    def test_mixed_precision_when_declared(self, name):
        report = _report(name)
        spec = WORKLOADS[name]
        if spec.precision is None:
            assert report.precision_model_bytes == 0
        else:
            assert 0 < report.precision_model_bytes < report.precision_int16_bytes
            assert report.precision_compression > 1.0
            assert report.precision_min_sqnr_db >= 20.0


class TestRegistryCoverage:
    def test_both_suites_present(self):
        suites = {spec.suite for spec in registered_workloads()}
        assert suites == {"paper", "transformer"}

    def test_paper_suite_is_the_table1_five(self):
        names = {s.name for s in registered_workloads("paper")}
        assert names == {
            "GoogLeNet", "ResNet50", "AlphaGoZero",
            "Sentimental-seqCNN", "Sentimental-seqLSTM",
        }

    def test_transformer_suite_members(self):
        names = {s.name for s in registered_workloads("transformer")}
        assert names == {
            "Transformer-base", "Transformer-MLP", "TinyAttention",
            "Transformer-mixed",
        }

    def test_summary_has_one_row_per_workload(self):
        reports = [_report(name) for name in ALL_NAMES]
        lines = conformance_summary(reports).splitlines()
        rows = [l for l in lines if not l.startswith(("  !", "workload"))]
        assert len(rows) == len(ALL_NAMES)

    def test_same_seed_same_report(self):
        spec = WORKLOADS["TinyAttention"]
        first = run_workload_conformance(spec, seed=3)
        second = run_workload_conformance(spec, seed=3)
        assert conformance_summary([first]) == conformance_summary([second])


class TestGolden:
    def test_matches_checked_in_golden(self, capsys):
        assert main(GOLDEN_ARGS) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_budget_mode_covers_the_small_transformers(self):
        assert set(BUDGET_WORKLOADS) <= set(WORKLOADS)
        for name in BUDGET_WORKLOADS:
            assert WORKLOADS[name].suite == "transformer"


class TestCliSurface:
    def test_suite_filter(self, capsys):
        assert main(["--workloads", "TinyAttention", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "TinyAttention" in out
        assert "GoogLeNet" not in out
        assert "1/1 workloads conformant" in out

    def test_unknown_workload_is_error(self, capsys):
        assert main(["--workloads", "NotANetwork"]) == 1
        assert "NotANetwork" in capsys.readouterr().err

    def test_empty_suite_is_error(self, capsys):
        assert main(["--suite", "banana"]) == 1
        assert "banana" in capsys.readouterr().err

    def test_bad_grid_is_error(self, capsys):
        assert main(["--grid", "banana"]) == 1
        assert "error" in capsys.readouterr().err

    def test_beam_overrides_parse(self, capsys):
        args = ["--workloads", "TinyAttention",
                "--spatial-beam", "8", "--temporal-beam", "12"]
        assert main(args) == 0
        assert "beams 8/12" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--spatial-beam", "--temporal-beam"])
    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_bad_beam_is_usage_error(self, capsys, flag, width):
        with pytest.raises(SystemExit) as exit_info:
            main(["--budget", flag, width])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
