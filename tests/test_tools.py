"""Command-line tools (argument parsing + end-to-end invocations)."""

import pytest

from repro.tools import (
    chaos,
    characterize,
    cluster,
    compile as compile_tool,
    conformance,
    sdc,
    serve,
    simulate,
    timing,
    trace,
)


class TestCompileTool:
    def test_single_conv(self, capsys):
        code = compile_tool.main(
            ["--conv", "8,4,16,16,3,3", "--padding", "1", "--grid", "3,2,2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cli_conv" in out and "cycles" in out

    def test_single_mm_with_isa_dump(self, capsys):
        code = compile_tool.main(
            ["--mm", "16,32,2", "--grid", "3,2,2", "--dump-isa"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "InstBUS stream" in out
        hex_lines = [l.strip() for l in out.splitlines() if l.startswith("  ")]
        assert all(len(l) == 32 for l in hex_lines)  # 16 bytes per inst

    def test_balance_objective(self, capsys):
        code = compile_tool.main(
            ["--conv", "8,4,16,16,3,3", "--grid", "3,2,2",
             "--objective", "balance"]
        )
        assert code == 0

    def test_bad_grid_rejected(self, capsys):
        assert compile_tool.main(["--mm", "4,4,1", "--grid", "3,2"]) == 1

    def test_model_and_layer_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            compile_tool.main(["--model", "GoogLeNet", "--mm", "4,4,1"])

    @pytest.mark.parametrize("argv", [
        ["--conv", "1,2"],
        ["--mm", "4,x,1"],
        ["--mm", "4,4,1", "--grid", "0,2,2"],
        ["--mm", "4,4,1", "--clk", "-5"],
    ], ids=["short_conv", "non_int_mm", "zero_grid", "negative_clk"])
    def test_bad_value_is_clean_error(self, argv, capsys):
        """Malformed shapes and an unbuildable overlay exit 1 with an
        ``error:`` line, not a traceback."""
        assert compile_tool.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTimingTool:
    def test_overlay_report(self, capsys):
        code = timing.main(["--device", "vu125", "--grid", "12,5,20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fmax" in out and "double-pumped" in out

    def test_systolic_report(self, capsys):
        code = timing.main(["--device", "vu125", "--systolic", "16,16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "systolic" in out

    def test_paths_listing(self, capsys):
        code = timing.main(
            ["--device", "7vx330t", "--grid", "10,2,16", "--paths"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dsp_cascade" in out

    def test_unknown_device_errors(self, capsys):
        code = timing.main(["--device", "nope", "--grid", "1,1,1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_grid_errors(self, capsys):
        code = timing.main(["--device", "vu125", "--grid", "100,100,100"])
        assert code == 1


class TestCharacterizeTool:
    def test_table(self, capsys):
        code = characterize.main([])
        out = capsys.readouterr().out
        assert code == 0
        assert "GoogLeNet" in out and "Sentimental-seqLSTM" in out

    def test_single_model_with_layers(self, capsys):
        code = characterize.main(["--model", "AlphaGoZero", "--layers"])
        out = capsys.readouterr().out
        assert code == 0
        assert "res0.conv1" in out and "EWOP" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            characterize.main(["--model", "VGG"])


#: A malformed or out-of-range value for every comma-list flag of every
#: tool that has one (``characterize`` and ``report`` have none):
#: (tool, argv, flag).
MALFORMED_LIST_FLAGS = {
    "compile-grid": (compile_tool, ["--mm", "4,4,1", "--grid", "3,2"],
                     "--grid"),
    "simulate-grid": (simulate, ["--mm", "4,4,1", "--grid", "2,x,2"],
                      "--grid"),
    "timing-grid": (timing, ["--grid", "3,2"], "--grid"),
    "timing-systolic": (timing, ["--systolic", "x"], "--systolic"),
    "serve-grid": (serve, ["--grid", "banana"], "--grid"),
    "chaos-grid": (chaos, ["--grid", "banana"], "--grid"),
    "chaos-mask-fractions": (
        chaos, ["--grid", "3,2,2", "--requests", "5",
                "--mask-fractions", "a"], "--mask-fractions"),
    "chaos-mask-fractions-range": (
        chaos, ["--grid", "3,2,2", "--requests", "5",
                "--mask-fractions", "0.1,1.5"], "--mask-fractions"),
    "trace-grid": (trace, ["--grid", "banana"], "--grid"),
    "sdc-grid": (sdc, ["--grid", "banana"], "--grid"),
    "sdc-serving-grid": (sdc, ["--serving-grid", "3,2"], "--serving-grid"),
    "cluster-grid": (cluster, ["--grid", "banana"], "--grid"),
    "cluster-tenants": (cluster, ["--tenants", "alpha:x"], "--tenants"),
    "cluster-tenants-zero": (cluster, ["--tenants", "alpha:0"], "--tenants"),
    "conformance-grid": (conformance, ["--budget", "--grid", "3,2"],
                         "--grid"),
}


#: A count below 1 for every count flag of every tool that has one:
#: (tool, argv, flag).
BAD_COUNT_FLAGS = {
    "serve-replicas": (serve, ["--replicas", "0"], "--replicas"),
    "serve-requests": (serve, ["--requests", "0"], "--requests"),
    "chaos-replicas": (chaos, ["--replicas", "0"], "--replicas"),
    "chaos-requests": (chaos, ["--requests", "-1"], "--requests"),
    "trace-replicas": (trace, ["--replicas", "0"], "--replicas"),
    "trace-requests": (trace, ["--requests", "0"], "--requests"),
    "sdc-replicas": (sdc, ["--replicas", "0"], "--replicas"),
    "sdc-requests": (sdc, ["--requests", "0"], "--requests"),
    "cluster-racks": (cluster, ["--racks", "0"], "--racks"),
    "cluster-boards-per-rack": (cluster, ["--boards-per-rack", "0"],
                                "--boards-per-rack"),
    "cluster-requests": (cluster, ["--requests", "0"], "--requests"),
}


def _assert_clean_flag_error(tool, argv, flag, capsys):
    """Exit 1 with one ``error:`` line naming ``flag``, before any work
    (nothing on stdout) and without a traceback."""
    assert tool.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tool, argv, flag", MALFORMED_LIST_FLAGS.values(),
                         ids=MALFORMED_LIST_FLAGS.keys())
def test_malformed_list_flag_is_clean_error(tool, argv, flag, capsys):
    _assert_clean_flag_error(tool, argv, flag, capsys)


@pytest.mark.parametrize("tool, argv, flag", BAD_COUNT_FLAGS.values(),
                         ids=BAD_COUNT_FLAGS.keys())
def test_bad_count_flag_is_clean_error(tool, argv, flag, capsys):
    _assert_clean_flag_error(tool, argv, flag, capsys)
