"""Graceful degradation: masked TPEs vs modeled GoogLeNet throughput.

The acceptance claim for fault-aware compilation: masking 10% of the
paper overlay's 1200 TPEs must cost at most 15% of modeled GoogLeNet
throughput.  Physically, DSP/BRAM tile faults cluster — a bad DSP
column or a failing BRAM bank takes out whole SuperBlock rows, not
1200 independent coin flips — so the headline scenario masks two full
SB rows (2 x 12 x 5 = 120 TPEs, exactly 10%).  The sub-grid derivation
then keeps the other 18 rows intact (12x5x18, 90% of TPEs) and the
recompiled schedules recover throughput proportional to the surviving
grid.  A scattered-mask curve is saved alongside as the pessimistic
bound: uniform random tile loss shortens the *uniform* chain every
SuperBlock must match, so it degrades faster — that contrast is the
argument for row/column-level repair granularity.
"""

from __future__ import annotations

import pytest
from conftest import save_artifact

from repro.compiler.cache import ScheduleCache
from repro.faults import (
    DegradationReport,
    FaultMask,
    degraded_compile,
    random_tpe_mask,
)
from repro.workloads.mlperf import build_model


def _row_mask(config, n_rows: int) -> FaultMask:
    """Mask the last ``n_rows`` full SuperBlock rows of the grid."""
    return FaultMask.from_coords([
        (row, col, pos)
        for row in range(config.d3 - n_rows, config.d3)
        for col in range(config.d2)
        for pos in range(config.d1)
    ])


@pytest.fixture(scope="module")
def degrade(paper_config):
    """Fault-aware compile through one schedule cache: the healthy
    GoogLeNet compilation runs once, and each distinct sub-grid compiles
    once."""
    googlenet = build_model("GoogLeNet")
    cache = ScheduleCache(paper_config)

    def run(mask: FaultMask) -> DegradationReport:
        return degraded_compile(googlenet, paper_config, mask, cache=cache)

    return run


def test_10pct_clustered_mask_degrades_at_most_15pct(degrade,
                                                     paper_config):
    mask = _row_mask(paper_config, 2)
    assert len(mask) == round(0.10 * paper_config.n_tpe)
    report = degrade(mask)
    assert report.degraded.grid == (12, 5, 18)
    assert report.tpe_fraction_kept == pytest.approx(0.90)
    # The acceptance bound: <= 15% modeled throughput loss at 10% masked.
    assert report.throughput_factor >= 0.85, report.describe()
    # And no pathological efficiency collapse on the sub-grid.
    assert report.degraded_efficiency >= 0.9 * report.healthy_efficiency


def test_degradation_is_monotone_in_masked_rows(degrade, paper_config):
    factors = [
        degrade(_row_mask(paper_config, n_rows)).throughput_factor
        for n_rows in (0, 2, 4)
    ]
    assert factors[0] == 1.0
    assert factors[0] >= factors[1] >= factors[2]
    # 20% masked should still retain the lion's share of throughput.
    assert factors[2] >= 0.70


def test_throughput_vs_masked_fraction_curve(degrade, paper_config):
    lines = [
        "GoogLeNet on 12x5x20 @ 650 MHz — throughput vs masked TPEs",
        "",
        f"{'scenario':<22s} {'masked':>7s} {'grid':>9s} {'kept':>6s} "
        f"{'throughput':>11s} {'eff':>7s}",
    ]
    rows = [
        (f"clustered {n} row(s)", _row_mask(paper_config, n))
        for n in (2, 4)
    ]
    rows.append((
        "scattered 5%",
        FaultMask.from_coords(random_tpe_mask(paper_config, 0.05, seed=1)),
    ))
    for label, mask in rows:
        report = degrade(mask)
        d = report.degraded
        lines.append(
            f"{label:<22s} {report.masked_fraction:>6.1%} "
            f"{f'{d.d1}x{d.d2}x{d.d3}':>9s} "
            f"{report.tpe_fraction_kept:>6.1%} "
            f"{report.throughput_factor:>11.1%} "
            f"{report.degraded_efficiency:>7.1%}"
        )
        # Universal sanity: the compiler never does worse than the
        # masked share would predict by more than 2x.
        assert report.throughput_factor >= \
            0.5 * report.tpe_fraction_kept, report.describe()
    save_artifact("faults_degradation.txt", "\n".join(lines))
