"""Fleet-scale availability under rack power loss, and its price.

Two claims ride on the cluster layer:

* (a) **capacity headroom buys availability**: at a fixed offered load,
  losing one rack costs a small fleet real availability (the survivors
  saturate and deadlines expire) while a larger fleet absorbs the same
  loss invisibly — the availability + p99 vs fleet-size curve is the
  repo's first standing ``BENCH_*.json`` trajectory;
* (b) the **acceptance campaign** from the cluster issue: a 100-board
  fleet sustains one million requests through a full rack power loss
  with zero accounting violations per tenant, >= 99% availability, a
  windowed-p99 spike that returns to the pre-loss steady state within
  the campaign, and a bit-identical report across two same-seed runs.

Everything runs on the virtual clock; the only nondeterminism knob is
the arrival seed.
"""

from __future__ import annotations

import json

import pytest
from conftest import OUT_DIR, save_artifact

from repro.cluster import (
    ClusterEngine,
    FleetService,
    RackPowerLoss,
    RackPowerRestore,
    TenantPolicy,
    build_fleet,
)
from repro.faults import FaultSchedule
from repro.overlay.config import OverlayConfig
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy, BatchServiceModel
from repro.serving.request import RetryPolicy, make_requests, poisson_arrivals
from repro.tools.cluster import assign_tenants
from repro.workloads.layers import MatMulLayer
from repro.workloads.network import Network

CONFIG = OverlayConfig(
    d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
    s_psumbuf_words=512, clk_h_mhz=650.0,
)
NETWORK = Network(
    name="mm", application="bench",
    layers=(MatMulLayer(name="fc", in_features=192, out_features=160,
                        batch=2),),
)
MAX_BATCH = 16
TENANTS = {"alpha": 2.0, "beta": 1.0}


@pytest.fixture
def model():
    """A fresh model (and schedule cache) per test, so each artifact's
    cache counters do not depend on which other tests ran first."""
    return BatchServiceModel(NETWORK, CONFIG)


def _run_campaign(model, *, n_racks, boards_per_rack, rate, n_requests,
                  seed, loss_s, restore_s, deadline_s=None, slo_s=50e-3):
    """One seeded campaign: rack0 dies at ``loss_s``, returns at
    ``restore_s``; two tenants share the fleet 2:1."""
    topology = build_fleet(n_racks, boards_per_rack)
    faults = FaultSchedule.from_events([
        RackPowerLoss(at_s=loss_s, replica="rack0"),
        RackPowerRestore(at_s=restore_s, replica="rack0"),
    ])
    requests = make_requests(
        poisson_arrivals(rate, n_requests, seed=seed), "mm",
        deadline_s=deadline_s,
    )
    assign_tenants(requests, TENANTS)
    engine = ClusterEngine(
        FleetService(model, topology),
        batch_policy=BatchPolicy(max_batch=MAX_BATCH, max_wait_s=0.5e-3),
        admission_policy=AdmissionPolicy(capacity=50_000),
        slo_s=slo_s,
        fault_schedule=faults,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
        tenant_policy=TenantPolicy(weights=dict(TENANTS)),
    )
    return engine.run(requests)


def test_availability_vs_fleet_size(model, out_dir):
    """(a) Fixed offered load + one lost rack, growing fleets.

    The load saturates two boards at half duty; the 4-board fleet's
    only rack dying for 20 ms expires deadlines wholesale, while the
    16-board fleet never notices.  Saved as ``BENCH_cluster.json``.
    """
    per_board_rps = MAX_BATCH / model.service_s(MAX_BATCH)
    rate = 2.0 * per_board_rps
    rows = []
    for n_racks in (1, 2, 4):
        report = _run_campaign(
            model, n_racks=n_racks, boards_per_rack=4, rate=rate,
            n_requests=20_000, seed=42, loss_s=0.020, restore_s=0.040,
            deadline_s=10e-3, slo_s=10e-3,
        )
        assert report.conserved, report.describe()
        rows.append((n_racks, report))

    bench = {
        "bench": "cluster_availability_vs_fleet_size",
        "model": NETWORK.name,
        "offered_rps": round(rate, 1),
        "n_requests": 20_000,
        "seed": 42,
        "rack_outage_ms": 20.0,
        "results": [
            {
                "n_racks": n_racks,
                "n_boards": report.n_boards,
                "availability": round(report.availability, 6),
                "p99_ms": round(report.p99_s * 1e3, 4),
                "n_dropped": report.n_dropped,
                "n_retries": report.core.n_retries,
                "conserved": report.conserved,
            }
            for n_racks, report in rows
        ],
    }
    (OUT_DIR / "BENCH_cluster.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"Availability + p99 vs fleet size — {rate:,.0f} req/s offered, "
        "rack0 powered off for 20 ms mid-run",
        f"{'fleet':>12s} {'avail':>9s} {'p99 ms':>8s} {'dropped':>8s} "
        f"{'retries':>8s}",
    ]
    for n_racks, report in rows:
        lines.append(
            f"{report.n_boards:>3d}b/{n_racks}r{'':>5s} "
            f"{report.availability:>9.2%} {report.p99_s * 1e3:>8.2f} "
            f"{report.n_dropped:>8d} {report.core.n_retries:>8d}"
        )
    save_artifact("cluster_availability_vs_fleet_size.txt",
                  "\n".join(lines))

    avails = [report.availability for _, report in rows]
    p99s = [report.p99_s for _, report in rows]
    # Headroom is monotone: more racks never hurt availability or p99.
    assert all(b >= a for a, b in zip(avails, avails[1:]))
    assert all(b <= a * 1.02 for a, b in zip(p99s, p99s[1:]))
    # The single-rack fleet visibly pays for the outage; four racks
    # absorb it completely.
    assert avails[0] < 0.95
    assert avails[-1] >= 0.99
    assert rows[-1][1].n_dropped == 0


def test_acceptance_campaign_one_million_requests(model, out_dir):
    """(b) 100 boards, 1M requests, full rack power loss — and back.

    Offered load is 95% of full-fleet capacity, so losing rack0 (10% of
    capacity) makes the survivors run a real deficit: the backlog and
    the windowed p99 climb until power returns, then drain back to the
    pre-loss steady state well before the run ends.
    """
    per_board_rps = MAX_BATCH / model.service_s(MAX_BATCH)
    rate = 0.95 * 100 * per_board_rps
    n_requests = 1_000_000
    loss_s, restore_s, window_s = 0.020, 0.025, 2e-3

    def run():
        return _run_campaign(
            model, n_racks=10, boards_per_rack=10, rate=rate,
            n_requests=n_requests, seed=7,
            loss_s=loss_s, restore_s=restore_s,
        )

    report = run()

    # Zero accounting violations, per tenant and in aggregate.
    assert report.conserved, report.describe()
    for stats in report.per_tenant.values():
        assert stats.conserved, stats.describe()
    assert sum(t.n_offered for t in report.per_tenant.values()) \
        == n_requests

    # The campaign survived the rack: every member drained and came
    # back through a cold start.
    assert report.drains == 10
    assert report.readmits == 10
    assert report.cold_starts == 10

    # Availability >= 99% even counting the dead rack's lost work.
    assert report.availability >= 0.99, report.describe()

    # p99 recovery: the outage spikes the windowed p99 well above the
    # pre-loss steady state, and the tail of the run returns to it.
    # The last window is excluded — it holds only the final stragglers.
    curve = report.windowed_p99(window_s)[:-1]
    pre = [p for t, p in curve if t <= loss_s and p > 0]
    post = [p for t, p in curve if t > restore_s + 0.015 and p > 0]
    baseline = sorted(pre)[len(pre) // 2]
    spike = max(p for t, p in curve)
    assert spike > 2.0 * baseline
    assert post, "campaign must outlive the recovery"
    tail = sorted(post)[len(post) // 2]
    assert tail <= 1.5 * baseline, (baseline, tail)

    lines = [
        "Acceptance campaign — 100 boards / 10 racks, "
        f"{n_requests:,} requests at {rate:,.0f} req/s",
        f"rack0 power loss at {loss_s * 1e3:.0f} ms, restored at "
        f"{restore_s * 1e3:.0f} ms",
        "",
        report.describe(),
        "",
        f"windowed p99 ({window_s * 1e3:.0f} ms windows): baseline "
        f"{baseline * 1e6:.0f} us, spike {spike * 1e6:.0f} us, "
        f"tail {tail * 1e6:.0f} us",
    ]
    save_artifact("cluster_acceptance_campaign.txt", "\n".join(lines))

    # Bit-for-bit reproducibility of the entire report.
    again = run()
    assert again.describe() == report.describe()
    assert [
        (r.request_id, r.complete_s, r.replica, r.attempts)
        for r in again.core.completed
    ] == [
        (r.request_id, r.complete_s, r.replica, r.attempts)
        for r in report.core.completed
    ]
    assert [
        (r.request_id, r.drop_reason) for r in again.core.dropped
    ] == [
        (r.request_id, r.drop_reason) for r in report.core.dropped
    ]
