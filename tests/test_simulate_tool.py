"""The simulate CLI."""

import pytest

from repro.tools import simulate


class TestSimulateTool:
    def test_conv_run(self, capsys):
        code = simulate.main(
            ["--conv", "8,6,8,8,3,3", "--padding", "1", "--grid", "3,2,2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH (bit-exact)" in out
        assert "efficiency" in out

    def test_mm_run(self, capsys):
        code = simulate.main(["--mm", "10,24,4", "--grid", "2,2,2"])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_depthwise_run(self, capsys):
        code = simulate.main(
            ["--conv", "6,6,8,8,3,3", "--padding", "1", "--groups", "6",
             "--grid", "3,2,2"]
        )
        assert code == 0

    def test_seed_changes_operands_not_result(self, capsys):
        for seed in ("0", "1"):
            code = simulate.main(
                ["--mm", "8,8,2", "--grid", "2,2,1", "--seed", seed]
            )
            assert code == 0

    def test_invalid_shape_errors(self, capsys):
        code = simulate.main(
            ["--conv", "1,1,2,2,5,5", "--grid", "2,2,1"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--conv", "8,6,8"],
        ["--mm", "4,4,1", "--grid", "2,2"],
    ], ids=["short_conv", "short_grid"])
    def test_malformed_dims_are_clean_errors(self, argv, capsys):
        assert simulate.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            simulate.main(["--conv", "1,1,4,4,1,1", "--mm", "4,4,1"])
