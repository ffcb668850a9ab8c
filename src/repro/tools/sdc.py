"""CLI: SDC campaign — ABFT detection/correction under injected bit-flips.

Three linked experiments, all seeded and virtual-clock deterministic so
the output diffs against a golden file:

1. **Overhead accounting** — the compiler model's ABFT checksum-work
   term (:func:`repro.compiler.model.abft_overhead`) against the MACCs
   the functional ABFT kernels actually execute, per layer, plus the
   per-tile encoding bound under each layer's scheduled mapping on the
   chosen grid.  The two columns must agree exactly.
2. **Kernel campaign** — seeded single bit-flips into weights,
   activations, and accumulators of each layer under every integrity
   policy: detection / correction / re-execution / served-corrupt
   accounting (:func:`repro.integrity.run_sdc_campaign`).
3. **Serving integration** — one fault schedule replayed through the
   serving engine under each policy, showing how detected corruption
   moves between dropped, re-executed, and corrected-in-place, and that
   the engine's integrity counters reconcile exactly.

Examples::

    python -m repro.tools.sdc --seed 7
    python -m repro.tools.sdc --trials 500 --policies detect,detect-correct
    python -m repro.tools.sdc --grid 6,3,10 --rate 1500 --requests 300
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler.model import abft_overhead
from repro.compiler.search import schedule_layer
from repro.errors import FTDLError
from repro.faults import generate_fault_schedule
from repro.integrity import (
    IntegrityPolicy,
    abft_layer_output,
    run_sdc_campaign,
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
from repro.sim.functional import random_layer_operands
from repro.tools import grid_config, run_cli
from repro.workloads.layers import ConvLayer, MatMulLayer
from repro.workloads.models import build_smallcnn

import numpy as np


def _campaign_layers() -> list[ConvLayer | MatMulLayer]:
    """Small CONV + MM layers that keep per-trial kernels cheap while
    covering stride, padding, groups, and batched MM."""
    return [
        ConvLayer("conv3x3", in_channels=8, out_channels=12, in_h=14,
                  in_w=14, kernel_h=3, kernel_w=3, stride=1, padding=1),
        ConvLayer("dwconv", in_channels=8, out_channels=8, in_h=10,
                  in_w=10, kernel_h=3, kernel_w=3, stride=2, padding=1,
                  groups=8),
        MatMulLayer("fc", in_features=64, out_features=24, batch=4),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.sdc", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for operands, flips, arrivals, faults")
    parser.add_argument(
        "--grid", default=None, metavar="D1,D2,D3",
        help="overlay grid for the tile-bound column and the serving run "
             "(default: the paper's 12,5,20)",
    )
    parser.add_argument("--trials", type=int, default=100,
                        help="bit-flips injected per layer per policy")
    parser.add_argument(
        "--policies", default="off,detect,detect-reexecute,detect-correct",
        help="comma-separated integrity policies to exercise",
    )
    serving = parser.add_argument_group("serving integration run")
    serving.add_argument(
        "--serving-grid", default="3,2,2", metavar="D1,D2,D3",
        help="overlay grid for the serving run — small by default so "
             "service times are long enough for upsets to strike "
             "in-flight batches",
    )
    serving.add_argument("--replicas", type=int, default=2)
    serving.add_argument("--rate", type=float, default=2500.0,
                         help="offered load, requests/s")
    serving.add_argument("--requests", type=int, default=300)
    serving.add_argument("--max-batch", type=int, default=8)
    serving.add_argument("--max-wait-ms", type=float, default=2.0)
    serving.add_argument("--deadline-ms", type=float, default=40.0)
    serving.add_argument("--slo-ms", type=float, default=20.0)
    serving.add_argument("--retries", type=int, default=3)
    serving.add_argument("--tpe-fault-rate", type=float, default=30.0,
                         help="per-replica transient TPE upsets per second")
    serving.add_argument("--bitflip-rate", type=float, default=80.0,
                         help="per-replica DRAM upsets per second")
    serving.add_argument("--correctable-fraction", type=float, default=0.5)
    return parser


def _overhead_table(layers, config: OverlayConfig, seed: int) -> str:
    lines = [
        "ABFT overhead — compiler model vs measured functional kernels:",
        f"  {'layer':10s} {'data maccs':>11s} {'chk model':>10s} "
        f"{'chk meas':>9s} {'overhead':>9s} {'tile bound':>10s} "
        f"{'agree':>5s}",
    ]
    rng = np.random.default_rng(seed)
    for layer in layers:
        model = abft_overhead(layer)
        mapping = schedule_layer(layer, config).mapping
        tiled = abft_overhead(layer, mapping)
        weights, acts = random_layer_operands(layer, rng)
        measured = abft_layer_output(layer, weights, acts)
        agree = (
            model.checksum_maccs == measured.checksum_maccs
            and model.base_maccs == measured.data_maccs
        )
        lines.append(
            f"  {layer.name:10s} {model.base_maccs:11d} "
            f"{model.checksum_maccs:10d} {measured.checksum_maccs:9d} "
            f"{model.overhead_fraction:9.2%} {tiled.tile_bound:10.2%} "
            f"{'yes' if agree else 'NO':>5s}"
        )
        if not agree:
            raise FTDLError(
                f"ABFT cost model disagrees with measured kernel work on "
                f"layer {layer.name!r}"
            )
    return "\n".join(lines)


def _campaigns(layers, policies, trials: int, seed: int) -> str:
    blocks = []
    for policy in policies:
        lines = [f"kernel campaign — policy {policy.value} "
                 f"({trials} flips/layer):"]
        for layer in layers:
            report = run_sdc_campaign(
                layer, policy=policy, trials=trials, seed=seed,
            )
            lines.append(
                f"  {layer.name:10s}: {report.n_corrupting:3d} corrupting "
                f"/ {report.n_benign} benign; detected "
                f"{report.n_detected}/{report.n_corrupting} "
                f"({report.detection_rate:.0%}); corrected "
                f"{report.n_corrected}, re-executed {report.n_reexecuted}, "
                f"dropped {report.n_dropped}; served corrupt "
                f"{report.n_served_corrupt}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _serving_run(args, policies, config: OverlayConfig) -> str:
    network = build_smallcnn()
    service = ReplicaService(
        BatchServiceModel(network, config), n_replicas=args.replicas
    )
    times = poisson_arrivals(args.rate, args.requests, seed=args.seed)
    requests_spec = (times, network.name, args.deadline_ms * 1e-3)
    faults = generate_fault_schedule(
        seed=args.seed,
        duration_s=times[-1] - times[0],
        replicas=service.replica_names(),
        grid=config,
        tpe_fault_rate_hz=args.tpe_fault_rate,
        stuck_fraction=0.0,
        bitflip_rate_hz=args.bitflip_rate,
        correctable_fraction=args.correctable_fraction,
        dram_words=network.weight_words or None,
    )
    lines = [
        f"serving integration — {network.name} on {args.replicas} "
        f"replica(s), grid {config.d1}x{config.d2}x{config.d3}; "
        f"{args.rate:g} req/s, {faults.describe()}",
        f"  {'policy':>17s} {'avail':>8s} {'p99 ms':>8s} {'drops':>6s} "
        f"{'retries':>7s} {'detected':>8s} {'corrected':>9s} "
        f"{'reexec':>6s} {'dropped':>7s}",
    ]
    for policy in policies:
        engine = ServingEngine(
            service,
            batch_policy=BatchPolicy(
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms * 1e-3,
            ),
            admission_policy=AdmissionPolicy(),
            slo_s=args.slo_ms * 1e-3,
            fault_schedule=faults,
            retry_policy=RetryPolicy(max_attempts=args.retries),
            integrity_policy=policy,
        )
        report = engine.run(
            make_requests(requests_spec[0], requests_spec[1],
                          deadline_s=requests_spec[2])
        )
        counts = report.integrity_counts
        detected = counts.get("sdc_detected", 0)
        if detected != (counts.get("corrected", 0)
                        + counts.get("reexecuted", 0)
                        + counts.get("dropped", 0)):
            raise FTDLError(
                f"integrity counters do not reconcile under "
                f"{policy.value}: {counts}"
            )
        assert report.health is not None
        if (report.health.dram_uncorrectable
                != report.fault_counts.get("dram_uncorrectable", 0)):
            raise FTDLError(
                "health monitor SDC exposure disagrees with injected "
                "uncorrectable DRAM events"
            )
        lines.append(
            f"  {policy.value:>17s} {report.availability:8.2%} "
            f"{report.p99_s * 1e3:8.2f} {report.n_dropped:6d} "
            f"{report.n_retries:7d} {detected:8d} "
            f"{counts.get('corrected', 0):9d} "
            f"{counts.get('reexecuted', 0):6d} "
            f"{counts.get('dropped', 0):7d}"
        )
    lines.append(
        "  counters reconcile: sdc_detected == corrected + reexecuted + "
        "dropped; health SDC exposure == injected dram_uncorrectable"
    )
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    config = grid_config(args.grid)
    serving_config = grid_config(args.serving_grid, "--serving-grid")
    policies = [
        IntegrityPolicy.parse(text)
        for text in args.policies.split(",") if text.strip()
    ]
    if not policies:
        raise FTDLError("no integrity policies selected")
    if args.trials < 1:
        raise FTDLError(f"--trials must be >= 1, got {args.trials}")
    layers = _campaign_layers()
    print(f"SDC campaign — grid {config.d1}x{config.d2}x{config.d3}, "
          f"seed {args.seed}, "
          f"policies {','.join(p.value for p in policies)}")
    print()
    print(_overhead_table(layers, config, args.seed))
    print()
    print(_campaigns(layers, policies, args.trials, args.seed))
    print()
    print(_serving_run(args, policies, serving_config))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
