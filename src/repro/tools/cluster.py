"""CLI: fleet chaos campaign — rack-loss serving on a board fleet.

Builds a rack/board fleet serving one model, drives it with seeded
multi-tenant open-loop traffic, and replays a seeded schedule of
*correlated* failure-domain faults (rack power loss, network
partitions, correlated DRAM upsets) optionally merged with the
per-board taxonomy.  The self-healing router drains and re-admits
boards as gates close and reopen, the optional autoscaler grows and
shrinks the serving set from live gauges, and the report asserts the
per-tenant conservation identity ``offered == completed + rejected +
dropped``.  Everything runs on the virtual clock with explicit seeds,
so a campaign is bit-reproducible — CI diffs this output against a
golden file.

Examples::

    python -m repro.tools.cluster --model SmallCNN --grid 3,2,2 \
        --racks 4 --boards-per-rack 4 --rate 3000 --requests 2000 \
        --seed 7 --rack-loss-rate 2
    python -m repro.tools.cluster --model SmallCNN --grid 3,2,2 \
        --racks 2 --boards-per-rack 8 --tenants alpha:2,beta:1 \
        --autoscale --rack-loss-rate 1 --partition-rate 1
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.compiler.cache import ScheduleCache
from repro.cluster import (
    AutoscalePolicy,
    ClusterEngine,
    FleetService,
    TenantPolicy,
    build_fleet,
    generate_domain_fault_schedule,
)
from repro.errors import FTDLError
from repro.faults import FaultSchedule, generate_fault_schedule
from repro.overlay.config import OverlayConfig
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    RetryPolicy,
    make_requests,
    poisson_arrivals,
)
from repro.tools import MODEL_CHOICES, build_network, grid_config, run_cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.cluster", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", default="SmallCNN", choices=MODEL_CHOICES)
    parser.add_argument(
        "--grid", default=None, metavar="D1,D2,D3",
        help="overlay grid (default: the paper's 12,5,20)",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument("--racks", type=int, default=4)
    fleet.add_argument("--boards-per-rack", type=int, default=4)
    parser.add_argument("--rate", type=float, default=3000.0,
                        help="offered load, requests/s")
    parser.add_argument("--requests", type=int, default=2000,
                        help="number of requests to serve")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for arrivals, faults, and tenant mix")
    parser.add_argument(
        "--tenants", default="", metavar="NAME:WEIGHT,...",
        help="tenant mix, e.g. 'alpha:2,beta:1' (weights drive both the "
             "arrival split and fair-share batching; empty = one tenant)",
    )
    parser.add_argument("--quota", type=int, default=None,
                        help="per-tenant queue quota (default: none)")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-capacity", type=int, default=1024)
    parser.add_argument("--slo-ms", type=float, default=50.0)
    parser.add_argument("--deadline-ms", type=float, default=200.0,
                        help="per-request deadline (<= 0 disables)")
    parser.add_argument("--retries", type=int, default=4,
                        help="max dispatch attempts per request")
    parser.add_argument("--integrity", default="off",
                        choices=["off", "detect", "detect-reexecute",
                                 "detect-correct"])
    parser.add_argument("--no-hedge", action="store_true",
                        help="disable hedged retry placement")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent schedule store: cold starts load previously "
             "compiled schedules from DIR instead of re-searching",
    )
    scale = parser.add_argument_group("autoscaling")
    scale.add_argument("--autoscale", action="store_true",
                       help="enable the gauge-driven autoscaler")
    scale.add_argument("--scale-interval-ms", type=float, default=20.0)
    scale.add_argument("--min-active", type=int, default=1)
    domain = parser.add_argument_group(
        "correlated domain faults (per-rack rates)"
    )
    domain.add_argument("--rack-loss-rate", type=float, default=2.0,
                        help="rack power-loss events per second")
    domain.add_argument("--mean-rack-repair-s", type=float, default=0.1)
    domain.add_argument("--partition-rate", type=float, default=0.0,
                        help="rack network partitions per second")
    domain.add_argument("--mean-partition-s", type=float, default=0.05)
    domain.add_argument("--correlated-dram-rate", type=float, default=0.0,
                        help="correlated DRAM fault events per second")
    board = parser.add_argument_group(
        "independent board faults (per-board rates)"
    )
    board.add_argument("--crash-rate", type=float, default=0.0,
                       help="board crashes per second")
    board.add_argument("--mean-repair-s", type=float, default=0.05)
    board.add_argument("--bitflip-rate", type=float, default=0.0,
                       help="DRAM upsets per second")
    board.add_argument("--correctable-fraction", type=float, default=0.9)
    return parser


def parse_tenants(spec: str) -> dict[str, float]:
    """Parse ``--tenants NAME:WEIGHT,...`` into a weight mapping; a
    missing weight is 1.

    Raises:
        FTDLError: naming ``--tenants`` for an entry with no name or a
            weight that is not a positive number.
    """
    weights: dict[str, float] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, weight = entry.partition(":")
        try:
            value = float(weight) if weight else 1.0
        except ValueError:
            value = math.nan
        if not name or not 0.0 < value < math.inf:
            raise FTDLError(
                f"--tenants expects NAME:WEIGHT entries with a positive "
                f"weight, got {entry!r}"
            )
        weights[name] = value
    return weights


def assign_tenants(requests, weights: dict[str, float]) -> None:
    """Deterministically spread requests over tenants by weight.

    Uses the same stride discipline as the fair-share batcher: the
    tenant with the lowest accumulated pass takes the next arrival, so
    the mix is proportional and reproducible with no RNG.
    """
    if not weights:
        return
    passes = {name: 0.0 for name in weights}
    for request in requests:
        tenant = min(passes, key=lambda t: (passes[t], t))
        request.tenant = tenant
        passes[tenant] += 1.0 / weights[tenant]


def _campaign(
    args, network, config: OverlayConfig, weights: dict[str, float]
) -> str:
    topology = build_fleet(args.racks, args.boards_per_rack)
    store = None
    if args.cache_dir:
        from repro.compiler.persist import PersistentScheduleStore
        store = PersistentScheduleStore(args.cache_dir)
    cache = ScheduleCache(config, store=store)
    service = FleetService(
        BatchServiceModel(network, config, cache=cache), topology
    )
    times = poisson_arrivals(args.rate, args.requests, seed=args.seed)
    deadline_s = (
        args.deadline_ms * 1e-3 if args.deadline_ms
        and args.deadline_ms > 0 else None
    )
    requests = make_requests(times, network.name, deadline_s=deadline_s)
    assign_tenants(requests, weights)
    duration = times[-1] - times[0]

    domain_faults = generate_domain_fault_schedule(
        seed=args.seed,
        duration_s=duration,
        topology=topology,
        rack_loss_rate_hz=args.rack_loss_rate,
        mean_rack_repair_s=args.mean_rack_repair_s,
        partition_rate_hz=args.partition_rate,
        mean_partition_s=args.mean_partition_s,
        correlated_dram_rate_hz=args.correlated_dram_rate,
    )
    board_faults = generate_fault_schedule(
        seed=args.seed + 1,
        duration_s=duration,
        replicas=list(topology.board_names),
        crash_rate_hz=args.crash_rate,
        mean_repair_s=args.mean_repair_s,
        bitflip_rate_hz=args.bitflip_rate,
        correctable_fraction=args.correctable_fraction,
    ) if (args.crash_rate > 0 or args.bitflip_rate > 0) \
        else FaultSchedule(events=())
    faults = FaultSchedule.merge(domain_faults, board_faults)

    engine = ClusterEngine(
        service,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms * 1e-3
        ),
        admission_policy=AdmissionPolicy(capacity=args.queue_capacity),
        slo_s=args.slo_ms * 1e-3,
        fault_schedule=faults,
        retry_policy=RetryPolicy(max_attempts=args.retries),
        integrity_policy=args.integrity,
        tenant_policy=TenantPolicy(
            weights=weights,
            quotas={t: args.quota for t in weights}
            if args.quota is not None else {},
        ),
        autoscale_policy=AutoscalePolicy(
            interval_s=args.scale_interval_ms * 1e-3,
            min_active=args.min_active,
        ) if args.autoscale else None,
        hedge_retries=not args.no_hedge,
    )
    report = engine.run(requests)
    lines = [
        f"fleet          : {topology.describe()}",
        f"fault schedule : {faults.describe()}",
        f"cold start     : "
        f"{service.cold_start_s * 1e6:.3f} us weight reload per board",
        "",
        report.describe(),
        "",
        "campaign summary:",
        f"  availability          : {report.availability:.4%}",
        f"  accounting identity   : "
        f"{'HOLDS' if report.conserved else 'VIOLATED'} "
        f"over {len(report.per_tenant)} tenant(s)",
        f"  drop rate             : {report.core.drop_rate:.4%}",
        f"  retries               : {report.core.n_retries}",
        f"  hedged dispatches     : {report.hedged_dispatches}",
        f"  schedule cache        : {cache.describe()}",
    ]
    if report.core.health is not None:
        health = report.core.health
        lines += [
            f"  MTTR                  : {health.mttr_s * 1e3:.3f} ms",
            f"  board uptime          : {health.uptime_fraction:.4%}",
        ]
        for name in sorted(health.per_domain):
            lines.append(
                f"  domain {health.per_domain[name].describe()}"
            )
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    config = grid_config(args.grid)
    weights = parse_tenants(args.tenants)
    network = build_network(args.model)
    print(
        f"cluster campaign — {network.name} on "
        f"{args.racks}x{args.boards_per_rack} boards, grid "
        f"{config.d1}x{config.d2}x{config.d3} @ "
        f"{config.clk_h_mhz:.0f} MHz; {args.rate:g} req/s poisson, "
        f"seed {args.seed}"
    )
    print()
    print(_campaign(args, network, config, weights))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
