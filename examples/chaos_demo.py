#!/usr/bin/env python3
"""Fault injection end to end: crash/failover, retries, degraded grids.

Three robustness views of a two-replica SmallCNN deployment, all on the
deterministic virtual clock (rerun with the same seed → identical
numbers):

1. a clean baseline vs a chaos run replaying a seeded fault schedule —
   availability, retries, MTTR, and the drop-reason breakdown;
2. one surgical crash with failover: the aborted batch retries on the
   surviving replica under the capped-backoff, deadline-aware policy;
3. the degradation curve: mask a growing fraction of TPEs, recompile on
   the largest healthy sub-grid, and watch modeled throughput track the
   surviving grid instead of cliffing.

Run:  PYTHONPATH=src python examples/chaos_demo.py  [--grid 3,2,2]
"""

from __future__ import annotations

import argparse

from repro.compiler.cache import ScheduleCache
from repro.faults import (
    FaultSchedule,
    ReplicaCrash,
    ReplicaRecovery,
    degraded_compile,
    generate_fault_schedule,
    random_tpe_mask,
)
from repro.overlay.config import OverlayConfig
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    ReplicaService,
    RetryPolicy,
    ServingEngine,
    make_requests,
    poisson_arrivals,
)
from repro.workloads.models import build_smallcnn


def build_engine(service_model, faults=None):
    return ServingEngine(
        ReplicaService(service_model, n_replicas=2),
        batch_policy=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        admission_policy=AdmissionPolicy(capacity=256),
        slo_s=50e-3,
        fault_schedule=faults,
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=1e-3),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="3,2,2", help="overlay D1,D2,D3")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    d1, d2, d3 = (int(x) for x in args.grid.split(","))
    config = OverlayConfig(d1=d1, d2=d2, d3=d3)

    network = build_smallcnn()
    service_model = BatchServiceModel(network, config)
    print(f"{network.name} on 2x {d1}x{d2}x{d3} overlay replicas "
          f"({config.n_tpe} TPEs each @ {config.clk_h_mhz:.0f} MHz)\n")

    def fresh_requests():
        return make_requests(
            poisson_arrivals(600.0, 300, seed=args.seed),
            network.name, deadline_s=0.100,
        )

    # 1. Baseline vs seeded chaos.
    baseline = build_engine(service_model).run(fresh_requests())
    faults = generate_fault_schedule(
        seed=args.seed, duration_s=0.5, replicas=["overlay0", "overlay1"],
        grid=config, crash_rate_hz=6.0, mean_repair_s=0.03,
        slowdown_rate_hz=2.0, tpe_fault_rate_hz=2.0, bitflip_rate_hz=10.0,
        link_fault_rate_hz=1.0,
    )
    chaos = build_engine(service_model, faults).run(fresh_requests())
    print(f"injected: {faults.describe()}\n")
    print(f"{'':>16s} {'baseline':>10s} {'chaos':>10s}")
    rows = [
        ("availability", f"{baseline.availability:.2%}",
         f"{chaos.availability:.2%}"),
        ("p99 ms", f"{baseline.p99_s * 1e3:.2f}",
         f"{chaos.p99_s * 1e3:.2f}"),
        ("SLO miss", f"{baseline.slo_violation_rate:.2%}",
         f"{chaos.slo_violation_rate:.2%}"),
        ("dropped", f"{baseline.n_dropped}", f"{chaos.n_dropped}"),
        ("retries", f"{baseline.n_retries}", f"{chaos.n_retries}"),
    ]
    for name, base, under in rows:
        print(f"{name:>16s} {base:>10s} {under:>10s}")
    if chaos.health is not None:
        print(f"\nchaos health: {chaos.health.describe()}")
    if chaos.drop_reasons:
        print(f"drop reasons: {chaos.drop_reasons}")

    # 2. One crash, one failover.
    surgical = FaultSchedule.from_events([
        ReplicaCrash(0.1015, "overlay0"),
        ReplicaRecovery(0.2015, "overlay0"),
    ])
    report = build_engine(service_model, surgical).run(fresh_requests())
    retried = [r for r in report.completed if r.attempts > 1]
    print(f"\nsurgical crash at t=101.5 ms (recovery at 201.5 ms): "
          f"availability {report.availability:.2%}, "
          f"{len(retried)} request(s) failed over"
          + (f" to {retried[0].replica}" if retried else ""))

    # 3. Degraded-grid compilation curve.
    print("\nmasked TPEs -> recompiled throughput "
          "(largest healthy sub-grid):")
    cache = ScheduleCache(config)
    for fraction in (0.05, 0.10, 0.20):
        mask = random_tpe_mask(config, fraction, seed=args.seed)
        result = degraded_compile(network, config, mask, cache=cache)
        d = result.degraded
        print(f"  {fraction:5.0%} masked -> {d.d1}x{d.d2}x{d.d3} "
              f"({result.tpe_fraction_kept:.0%} TPEs), throughput "
              f"{result.throughput_factor:.1%} of healthy")

    print("\nchaos report under the seeded schedule:\n")
    print(chaos.describe())


if __name__ == "__main__":
    main()
