"""The repro.tools.serve CLI."""

import pytest

from repro.tools import serve


class TestServeTool:
    def test_replica_run(self, capsys):
        code = serve.main([
            "--model", "SmallCNN", "--grid", "3,2,2", "--rate", "500",
            "--requests", "40", "--replicas", "2", "--slo-ms", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving report" in out
        assert "p99" in out
        assert "util overlay1" in out

    def test_pipeline_run(self, capsys):
        code = serve.main([
            "--model", "SmallCNN", "--grid", "3,2,2",
            "--arrival", "uniform", "--rate", "1000", "--requests", "30",
            "--pipeline-devices", "2", "--max-batch", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline" in out

    def test_deterministic_given_seed(self, capsys):
        argv = [
            "--model", "SmallCNN", "--grid", "3,2,2", "--rate", "800",
            "--requests", "30", "--seed", "9",
        ]
        assert serve.main(argv) == 0
        first = capsys.readouterr().out
        assert serve.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cache_bound_flag(self, capsys):
        code = serve.main([
            "--model", "SmallCNN", "--grid", "3,2,2", "--rate", "500",
            "--requests", "20", "--cache-entries", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound 2" in out
        # One cache summary: the report's own ``schedule cache`` line.
        assert out.count("(bound 2)") == 1

    def test_pipeline_cache_bound(self, capsys):
        """A pipeline compiles through one schedule cache, so
        ``--cache-entries`` bounds it as it bounds a replica's."""
        code = serve.main([
            "--model", "SmallCNN", "--grid", "3,2,2", "--rate", "500",
            "--requests", "20", "--cache-entries", "1",
            "--pipeline-devices", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline" in out
        assert out.count("(bound 1)") == 1

    @pytest.mark.parametrize("flags, flag", [
        (["--pipeline-devices", "-2"], "--pipeline-devices"),
    ])
    def test_inconsistent_flags_rejected(self, capsys, flags, flag):
        code = serve.main([
            "--model", "SmallCNN", "--grid", "3,2,2", "--requests", "5",
            *flags,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert flag in captured.err
        assert captured.out == ""

    def test_bad_grid_reports_error(self, capsys):
        code = serve.main([
            "--model", "SmallCNN", "--grid", "0,2,2", "--requests", "5",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_grid_reports_error(self, capsys):
        for bad in ("12,5", "a,b,c", "1,2,3,4"):
            code = serve.main([
                "--model", "SmallCNN", "--grid", bad, "--requests", "5",
            ])
            assert code == 1
            assert "--grid expects" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            serve.main(["--model", "NotAModel"])
