"""Determinism of the benchmark's outputs, at reduced size.

Counts, virtual-clock values and modelled or simulated cycles must
repeat exactly for a seed, and tracing must not change them::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from calibrate import scale  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: bool, work: Path):
    probe = Probe(run_id="test", trace=trace)
    result = WORKLOADS[workload](seed, probe, work, small=True)
    assert probe.errors == []
    assert probe.failed == 0
    return result, probe


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_exactly(workload, tmp_path):
    first, _ = _run(workload, 7, False, tmp_path / "a")
    second, _ = _run(workload, 7, False, tmp_path / "b")
    assert first.exact == second.exact
    assert first.schedule_cycles == second.schedule_cycles > 0


@pytest.mark.parametrize("workload", ["serve", "cluster"])
def test_traced_run_reports_the_same_outputs(workload, tmp_path):
    untraced, _ = _run(workload, 3, False, tmp_path / "a")
    traced, probe = _run(workload, 3, True, tmp_path / "b")
    assert traced.exact == untraced.exact
    assert untraced.timed == {}
    assert traced.timed["req_per_s"] > 0
    spans = probe.tracer.spans
    assert spans and all(s.closed for s in spans)
    assert {s.args["run_id"] for s in spans} == {"test"}
    assert probe.tracer.validate() == []


def test_self_time_excludes_children(tmp_path):
    """Self time is duration minus children, at the call's calibration."""
    _, probe = _run("compile", 1, True, tmp_path)
    self_times = dict(
        (span.span_id, self_s) for span, self_s in probe.self_times()
    )
    for span in probe.tracer.find("compiler.warm_start"):
        children = probe.tracer.children_of(span)
        assert children
        raw = span.duration - sum(c.duration for c in children)
        assert self_times[span.span_id] == pytest.approx(
            scale(raw, span.args["cal_s"])
        )
        for child in children:
            assert self_times[child.span_id] == pytest.approx(
                scale(child.duration, span.args["cal_s"])
            )
