"""CLI: end-to-end observability — trace one pinned compile+serve run.

Runs a deterministic workload twice over the same virtual clocks with
tracing *on*: first the compiler warms every batch size's schedules
(spans on the compiler step clock), then a seeded serving run with a
seeded fault schedule replays through the engine (spans on the virtual
second clock).  Both tracers and one shared metrics registry are then
exported as a Chrome trace (``chrome://tracing`` / Perfetto) and
Prometheus text exposition, with the summary cross-checking that
trace-derived aggregates reconcile exactly with the engine's own report
— the property ``tests/test_trace_integration.py`` enforces.

Everything is seeded and wall-clock-free, so stdout is bit-reproducible
and CI diffs it against ``tests/golden/trace_smoke.txt``.

Examples::

    python -m repro.tools.trace --grid 3,2,2 --replicas 2 \
        --rate 1200 --requests 200 --seed 11 --crash-rate 8
    python -m repro.tools.trace --model GoogLeNet --requests 100 \
        --chrome-out /tmp/trace.json --prom-out /tmp/metrics.prom
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.compiler.cache import ScheduleCache
from repro.faults import generate_fault_schedule
from repro.overlay.config import OverlayConfig
from repro.serving import (
    BatchPolicy,
    BatchServiceModel,
    ReplicaService,
    RetryPolicy,
    ServingEngine,
    make_requests,
    poisson_arrivals,
)
from repro.trace import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
)
from repro.tools import MODEL_CHOICES, build_network, grid_config, run_cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.trace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", default="SmallCNN", choices=MODEL_CHOICES)
    parser.add_argument(
        "--grid", default=None, metavar="D1,D2,D3",
        help="overlay grid (default: the paper's 12,5,20)",
    )
    parser.add_argument("--replicas", type=int, default=2,
                        help="independent overlay replicas")
    parser.add_argument("--rate", type=float, default=1200.0,
                        help="offered load, requests/s")
    parser.add_argument("--requests", type=int, default=200,
                        help="number of requests to serve")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both arrivals and faults")
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--slo-ms", type=float, default=25.0)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline (default: none)")
    fault = parser.add_argument_group("fault injection (per-replica rates)")
    fault.add_argument("--crash-rate", type=float, default=6.0,
                       help="replica crashes per second")
    fault.add_argument("--mean-repair-s", type=float, default=0.02)
    fault.add_argument("--slowdown-rate", type=float, default=3.0)
    fault.add_argument("--bitflip-rate", type=float, default=10.0)
    fault.add_argument("--correctable-fraction", type=float, default=0.8)
    out = parser.add_argument_group("export targets")
    out.add_argument("--chrome-out", default=None, metavar="PATH",
                     help="write the Chrome trace JSON here")
    out.add_argument("--prom-out", default=None, metavar="PATH",
                     help="write the Prometheus text exposition here")
    return parser


def _ok(match: bool) -> str:
    return "ok" if match else "MISMATCH"


def _traced_run(args, network, config: OverlayConfig) -> str:
    compile_tracer = Tracer(unit="step")
    serve_tracer = Tracer(unit="s")
    registry = MetricsRegistry()

    # Phase 1 — compile: warm every batch size's schedules on the step
    # clock, so the serving phase below is pure cache hits.
    cache = ScheduleCache(config, tracer=compile_tracer, metrics=registry)
    model = BatchServiceModel(network, config, cache=cache)
    for batch_size in range(1, args.max_batch + 1):
        model.service_s(batch_size)

    # Phase 2 — serve: seeded traffic + seeded faults on the virtual
    # second clock.
    service = ReplicaService(model, n_replicas=args.replicas)
    times = poisson_arrivals(args.rate, args.requests, seed=args.seed)
    deadline_s = (
        args.deadline_ms * 1e-3 if args.deadline_ms is not None else None
    )
    requests = make_requests(times, network.name, deadline_s=deadline_s)
    faults = generate_fault_schedule(
        seed=args.seed,
        duration_s=times[-1] - times[0],
        replicas=service.replica_names(),
        grid=config,
        crash_rate_hz=args.crash_rate,
        mean_repair_s=args.mean_repair_s,
        slowdown_rate_hz=args.slowdown_rate,
        bitflip_rate_hz=args.bitflip_rate,
        correctable_fraction=args.correctable_fraction,
        metrics=registry,
    )
    engine = ServingEngine(
        service,
        batch_policy=BatchPolicy(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms * 1e-3
        ),
        slo_s=args.slo_ms * 1e-3,
        fault_schedule=faults,
        retry_policy=RetryPolicy(),
        tracer=serve_tracer,
        metrics=registry,
    )
    report = engine.run(requests)

    # Summaries + reconciliation (trace-derived == report, exactly).
    problems = compile_tracer.validate() + serve_tracer.validate()
    counter = registry.counter("search_candidates_evaluated", "").series()
    candidates = sum(counter.values())
    hits = registry.counter("schedule_cache_hits", "").value()
    misses = registry.counter("schedule_cache_misses", "").value()
    stats = cache.stats()
    roots = [s for s in serve_tracer.spans
             if s.name == "request" and s.parent_id is None]
    done = sorted(s.duration for s in roots
                  if s.args.get("status") == "completed")
    latencies = sorted(r.latency_s for r in report.completed)
    n_dropped = sum(
        registry.counter("serving_requests_dropped", "").series().values()
    )
    repairs = [i.args["repair_s"] for i in serve_tracer.instants
               if i.name == "health.up"]
    mttr = sum(repairs) / len(repairs) if repairs else 0.0
    lines = [
        "compile trace [step]:",
        f"  spans            : {len(compile_tracer.spans)} "
        f"({len(compile_tracer.roots())} roots), "
        f"{len(compile_tracer.instants)} instants",
        f"  candidates       : {int(candidates)} evaluated",
        f"  schedule cache   : {int(hits)} hits / {int(misses)} misses "
        f"(counters == cache stats: "
        f"{_ok(hits == stats.hits and misses == stats.misses)})",
        "",
        "serving trace [s]:",
        f"  spans            : {len(serve_tracer.spans)} "
        f"({len(roots)} request roots), "
        f"{len(serve_tracer.instants)} instants",
        f"  requests         : {len(done)} completed / "
        f"{len(report.dropped)} dropped "
        f"(counters == report: "
        f"{_ok(len(done) == report.n_completed and int(n_dropped) == report.n_dropped)})",
        f"  fault schedule   : {faults.describe()}",
        "",
        "reconciliation:",
        f"  latencies        : trace == report for all "
        f"{len(latencies)} completed: {_ok(done == latencies)}",
        f"  p50 / p95        : {report.p50_s * 1e3:.3f} / "
        f"{report.p95_s * 1e3:.3f} ms",
        f"  MTTR             : {mttr * 1e3:.3f} ms "
        f"(trace == health report: "
        f"{_ok(report.health is not None and mttr == report.health.mttr_s)})",
        f"  well-formed      : {_ok(not problems)} "
        f"({len(problems)} problems across 2 tracers)",
    ]

    tracers = {"compiler": compile_tracer, "serving": serve_tracer}
    chrome = chrome_trace(tracers)
    prom = prometheus_text(registry)
    lines += [
        "",
        f"chrome trace     : {len(chrome['traceEvents'])} events"
        + (f" -> {args.chrome_out}" if args.chrome_out else ""),
        f"prometheus text  : {len(prom.splitlines())} lines"
        + (f" -> {args.prom_out}" if args.prom_out else ""),
        "",
        prom.rstrip("\n"),
    ]
    if args.chrome_out:
        Path(args.chrome_out).write_text(chrome_trace_json(tracers) + "\n")
    if args.prom_out:
        Path(args.prom_out).write_text(prom)
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    config = grid_config(args.grid)
    network = build_network(args.model)
    print(f"trace run — {network.name} on {args.replicas} replica(s), "
          f"grid {config.d1}x{config.d2}x{config.d3} @ "
          f"{config.clk_h_mhz:.0f} MHz; {args.rate:g} req/s poisson, "
          f"seed {args.seed}")
    print()
    print(_traced_run(args, network, config))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
