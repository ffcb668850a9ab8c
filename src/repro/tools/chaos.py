"""CLI: chaos harness — replay a seeded fault schedule through serving.

Drives one model deployment with seeded open-loop traffic *and* a
seeded fault schedule (crashes, slowdowns, DSP/BRAM tile faults, DRAM
bit-flips, link glitches), then reports the reliability metrics a
production deployment is judged by: request availability, the
SLO-violation-under-fault rate, MTTR, retry/drop accounting, and a
throughput-vs-masked-TPE-fraction degradation curve from fault-aware
recompilation.  Everything runs on the virtual clock with explicit
seeds, so a run is bit-reproducible — CI diffs this output against a
golden file.

Examples::

    python -m repro.tools.chaos --model SmallCNN --grid 3,2,2 \
        --replicas 3 --rate 600 --requests 300 --seed 7 \
        --crash-rate 4 --tpe-fault-rate 2 --bitflip-rate 10
    python -m repro.tools.chaos --model GoogLeNet --replicas 2 \
        --rate 300 --requests 200 --deadline-ms 80 --slo-ms 40
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler.cache import ScheduleCache
from repro.errors import FTDLError
from repro.faults import (
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
from repro.tools import (
    MODEL_CHOICES,
    build_network,
    grid_config,
    parse_floats,
    run_cli,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.chaos", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", default="SmallCNN", choices=MODEL_CHOICES)
    parser.add_argument(
        "--grid", default=None, metavar="D1,D2,D3",
        help="overlay grid (default: the paper's 12,5,20)",
    )
    parser.add_argument("--replicas", type=int, default=3,
                        help="independent overlay replicas")
    parser.add_argument("--rate", type=float, default=600.0,
                        help="offered load, requests/s")
    parser.add_argument("--requests", type=int, default=300,
                        help="number of requests to serve")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both arrivals and faults")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-capacity", type=int, default=256)
    parser.add_argument("--slo-ms", type=float, default=50.0)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline (default: none)")
    parser.add_argument("--retries", type=int, default=3,
                        help="max dispatch attempts per request")
    fault = parser.add_argument_group("fault injection (per-replica rates)")
    fault.add_argument("--crash-rate", type=float, default=2.0,
                       help="replica crashes per second")
    fault.add_argument("--mean-repair-s", type=float, default=0.05)
    fault.add_argument("--slowdown-rate", type=float, default=1.0,
                       help="throttling events per second")
    fault.add_argument("--slowdown-factor", type=float, default=2.0)
    fault.add_argument("--tpe-fault-rate", type=float, default=1.0,
                       help="DSP/BRAM tile faults per second")
    fault.add_argument("--stuck-fraction", type=float, default=0.5)
    fault.add_argument("--bitflip-rate", type=float, default=5.0,
                       help="DRAM upsets per second")
    fault.add_argument("--correctable-fraction", type=float, default=0.9)
    fault.add_argument("--link-fault-rate", type=float, default=0.5)
    curve = parser.add_argument_group("degradation curve")
    curve.add_argument(
        "--mask-fractions", default="0.05,0.1,0.2", metavar="F1,F2,...",
        help="masked-TPE fractions for the fault-aware recompilation "
             "curve ('' skips the curve)",
    )
    return parser


def _chaos_run(args, network, config: OverlayConfig) -> str:
    service = ReplicaService(
        BatchServiceModel(network, config), n_replicas=args.replicas
    )
    times = poisson_arrivals(args.rate, args.requests, seed=args.seed)
    deadline_s = (
        args.deadline_ms * 1e-3 if args.deadline_ms is not None else None
    )
    requests = make_requests(times, network.name, deadline_s=deadline_s)
    duration = times[-1] - times[0]
    faults = generate_fault_schedule(
        seed=args.seed,
        duration_s=duration,
        replicas=service.replica_names(),
        grid=config,
        crash_rate_hz=args.crash_rate,
        mean_repair_s=args.mean_repair_s,
        slowdown_rate_hz=args.slowdown_rate,
        slowdown_factor=args.slowdown_factor,
        tpe_fault_rate_hz=args.tpe_fault_rate,
        stuck_fraction=args.stuck_fraction,
        bitflip_rate_hz=args.bitflip_rate,
        correctable_fraction=args.correctable_fraction,
        link_fault_rate_hz=args.link_fault_rate,
    )
    engine = ServingEngine(
        service,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms * 1e-3
        ),
        admission_policy=AdmissionPolicy(capacity=args.queue_capacity),
        slo_s=args.slo_ms * 1e-3,
        fault_schedule=faults,
        retry_policy=RetryPolicy(max_attempts=args.retries),
    )
    report = engine.run(requests)
    lines = [
        f"fault schedule : {faults.describe()}",
        "",
        report.describe(),
        "",
        "reliability summary:",
        f"  availability          : {report.availability:.4%}",
        f"  SLO-violation-rate    : {report.slo_violation_rate:.4%} "
        f"(under fault)",
        f"  drop rate             : {report.drop_rate:.4%}",
        f"  retries               : {report.n_retries}",
    ]
    if report.health is not None:
        lines += [
            f"  MTTR                  : {report.health.mttr_s * 1e3:.3f} ms",
            f"  replica uptime        : {report.health.uptime_fraction:.4%}",
        ]
    return "\n".join(lines)


def _degradation_curve(
    fractions: tuple[float, ...], network, config: OverlayConfig, seed: int
) -> str:
    cache = ScheduleCache(config)
    lines = [
        "degradation curve (seeded scattered stuck-at TPE masks, "
        "fault-aware recompilation):",
        f"  {'masked':>8s} {'tiles':>6s} {'grid':>10s} {'kept':>7s} "
        f"{'throughput':>11s} {'eff delta':>10s}",
    ]
    for fraction in fractions:
        mask = random_tpe_mask(config, fraction, seed=seed)
        result = degraded_compile(network, config, mask, cache=cache)
        d = result.degraded
        lines.append(
            f"  {fraction:8.1%} {result.n_masked:6d} "
            f"{f'{d.d1}x{d.d2}x{d.d3}':>10s} "
            f"{result.tpe_fraction_kept:7.1%} "
            f"{result.throughput_factor:11.1%} "
            f"{result.efficiency_delta:+10.2%}"
        )
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    config = grid_config(args.grid)
    fractions = parse_floats(args.mask_fractions, "--mask-fractions")
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:
            raise FTDLError(
                f"--mask-fractions entries must be in [0, 1), got {fraction}"
            )
    network = build_network(args.model)
    print(f"chaos run — {network.name} on {args.replicas} replica(s), "
          f"grid {config.d1}x{config.d2}x{config.d3} @ "
          f"{config.clk_h_mhz:.0f} MHz; {args.rate:g} req/s poisson, "
          f"seed {args.seed}")
    print()
    print(_chaos_run(args, network, config))
    if fractions:
        print()
        print(_degradation_curve(fractions, network, config, args.seed))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
