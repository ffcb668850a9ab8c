"""CLI: simulated inference serving with batching and latency SLOs.

Drives one model deployment (N overlay replicas, or N replicas of a
multi-FPGA pipeline) with seeded open-loop traffic and reports
throughput, p50/p95/p99 latency, per-replica utilization, queue
behavior, and the SLO-violation rate.  Everything runs on a virtual
clock, so the run is deterministic given the seed.

Examples::

    python -m repro.tools.serve --model GoogLeNet --rate 300 \
        --requests 500 --replicas 2 --slo-ms 40
    python -m repro.tools.serve --model Sentimental-seqLSTM --rate 100 \
        --requests 200 --max-batch 16 --pipeline-devices 4
    python -m repro.tools.serve --model SmallCNN --grid 3,2,2 \
        --arrival uniform --rate 1000 --requests 300
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler.cache import ScheduleCache
from repro.errors import ServingError
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    PipelineService,
    ReplicaService,
    ServingEngine,
    make_requests,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.tools import MODEL_CHOICES, build_network, grid_config, run_cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", default="SmallCNN", choices=MODEL_CHOICES)
    parser.add_argument(
        "--grid", default=None, metavar="D1,D2,D3",
        help="overlay grid (default: the paper's 12,5,20)",
    )
    parser.add_argument("--replicas", type=int, default=1,
                        help="independent overlay replicas")
    parser.add_argument(
        "--pipeline-devices", type=int, default=0, metavar="N",
        help="partition the model across N devices per replica "
             "(0 = single-overlay replicas)",
    )
    parser.add_argument("--arrival", choices=("poisson", "uniform"),
                        default="poisson")
    parser.add_argument("--rate", type=float, default=100.0,
                        help="offered load, requests/s")
    parser.add_argument("--requests", type=int, default=200,
                        help="number of requests to serve")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=5.0,
                        help="batch formation deadline")
    parser.add_argument("--queue-capacity", type=int, default=256)
    parser.add_argument("--slo-ms", type=float, default=50.0,
                        help="latency objective for violation accounting")
    parser.add_argument("--cache-entries", type=int, default=None,
                        help="bound the schedule cache (LRU eviction)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent schedule store: cold starts load previously "
             "compiled schedules from DIR instead of re-searching",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.pipeline_devices < 0:
        raise ServingError(
            f"--pipeline-devices must be >= 0, got {args.pipeline_devices}"
        )
    config = grid_config(args.grid)
    network = build_network(args.model)

    store = None
    if args.cache_dir:
        from repro.compiler.persist import PersistentScheduleStore
        store = PersistentScheduleStore(args.cache_dir)
    # A pipeline plans residency, which WBUF efficiency decides.
    cache = ScheduleCache(
        config,
        objective="balance" if args.pipeline_devices else "performance",
        max_entries=args.cache_entries, store=store,
    )

    if args.pipeline_devices > 0:
        service = PipelineService(
            network, config,
            n_devices=args.pipeline_devices,
            n_replicas=args.replicas,
            cache=cache,
        )
        shape = (f"{args.replicas} x {service.n_devices}-device "
                 f"pipeline")
    else:
        service = ReplicaService(
            BatchServiceModel(network, config, cache=cache),
            n_replicas=args.replicas,
        )
        shape = f"{args.replicas} overlay replica(s)"

    if args.arrival == "poisson":
        times = poisson_arrivals(args.rate, args.requests,
                                 seed=args.seed)
    else:
        times = uniform_arrivals(args.rate, args.requests)
    requests = make_requests(times, network.name)

    engine = ServingEngine(
        service,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms * 1e-3,
        ),
        admission_policy=AdmissionPolicy(capacity=args.queue_capacity),
        slo_s=args.slo_ms * 1e-3,
    )
    print(f"{network.name} on {shape}, grid "
          f"{config.d1}x{config.d2}x{config.d3} @ "
          f"{config.clk_h_mhz:.0f} MHz; {args.arrival} traffic at "
          f"{args.rate:g} req/s (seed {args.seed})")
    report = engine.run(requests)
    print(report.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
