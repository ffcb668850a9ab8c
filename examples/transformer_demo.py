#!/usr/bin/env python3
"""Transformer workloads on the overlay, end to end.

Three stops:

1. **TinyAttention, bit-true** — a single-path attention chain runs
   through the cycle-level pipeline simulator: projections on the
   overlay, the score matmul streaming the layernorm output through the
   weight port (`weight_source`), softmax/layernorm/residual on the
   host CPU, every accelerated layer's coverage proven.
2. **Conformance** — the same workload through the full-stack harness:
   search, sim vs golden, serving, fault-masked recompile, ABFT,
   host-kernel determinism.
3. **Mixed precision** — the int8/bf16 deployment of a one-block
   encoder, with per-layer SQNR and the model-size compression.

Run:  python examples/transformer_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.quantization import mixed_precision_report
from repro.conformance import conformance_summary, run_workload_conformance
from repro.overlay.config import OverlayConfig
from repro.sim import NetworkSimulator
from repro.sim.functional import random_layer_operands
from repro.workloads import WORKLOADS, build_workload
from repro.workloads.models import (
    build_tiny_attention,
    transformer_precision_spec,
)


def main() -> None:
    rng = np.random.default_rng(2020)
    config = OverlayConfig(d1=3, d2=2, d3=2)

    # ---------------------------------------------------------------- #
    # 1. TinyAttention through the bit-true pipeline simulator.
    # ---------------------------------------------------------------- #
    net = build_tiny_attention()
    print(f"network: {net.name}, {len(net.layers)} layers "
          f"({len(net.accelerated_layers())} on the overlay, "
          f"{len(net.host_layers())} on the host)")
    weights = {
        layer.name: random_layer_operands(layer, rng)[0]
        for layer in net.accelerated_layers()
        if getattr(layer, "weight_source", None) is None
    }
    first = net.layers[0]
    inputs = rng.integers(
        -127, 128, size=(first.n_features, first.batch)
    ).astype(np.int16)
    run = NetworkSimulator(config).run(net, inputs, weights)
    print(f"\n{'layer':8s} {'kind':8s} {'overlay cyc':>12s} {'host cyc':>9s}")
    for stage in run.stages:
        print(f"{stage.name:8s} {stage.kind:8s} "
              f"{stage.overlay_cycles:12d} {stage.host_cycles:9d}")
    bound = "host" if run.host_bound else "overlay"
    print(f"pipelined: {run.pipelined_cycles} cycles ({bound}-bound), "
          f"output {run.output.shape}, every overlay layer coverage-proven")

    # ---------------------------------------------------------------- #
    # 2. The full-stack conformance harness on the same workload.
    # ---------------------------------------------------------------- #
    print("\nconformance (search -> sim vs golden -> serve -> faults -> "
          "abft -> host):")
    report = run_workload_conformance(WORKLOADS["TinyAttention"], config)
    print(conformance_summary([report]))

    # ---------------------------------------------------------------- #
    # 3. Mixed precision on the one-block encoder.
    # ---------------------------------------------------------------- #
    net = build_workload("Transformer-mixed")
    mp = mixed_precision_report(
        net, transformer_precision_spec(net), np.random.default_rng(7)
    )
    print(f"\nmixed precision for {net.name}:")
    print(f"{'layer':16s} {'precision':>9s} {'SQNR dB':>8s} {'bytes':>7s}")
    for row in mp.rows:
        print(f"{row.name:16s} {row.precision:>9s} "
              f"{row.sqnr_db:8.1f} {row.stored_bytes:7d}")
    print(f"model {mp.model_bytes} B vs int16 {mp.int16_bytes} B "
          f"-> {mp.compression:.2f}x smaller, "
          f"min SQNR {mp.min_sqnr_db:.1f} dB")


if __name__ == "__main__":
    main()
