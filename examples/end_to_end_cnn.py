#!/usr/bin/env python3
"""End-to-end CNN inference, simulated cycle by cycle (§II-A pipeline).

Pushes one input through a small sequential CNN with every stage executed
on the reproduction's own machinery:

* CONV/MM layers: compiled by the FTDL scheduler, lowered to controller
  instructions, and executed on the cycle-level overlay model, which
  proves Eqn-11 coverage and returns the golden NumPy kernel's output;
* layer boundaries: fixed-point requantization back to int16;
* EWOP layers (ReLU, pooling): the host CPU model, pipelined with the
  overlay — reproducing the paper's claim that host EWOP never becomes
  the bound.

Also sweeps quantization precision on the first conv to show why the
paper's 16-bit choice is comfortable (~6 dB SQNR per bit).

Run:  python examples/end_to_end_cnn.py
"""

from __future__ import annotations

import numpy as np

from repro import OverlayConfig
from repro.analysis.quantization import precision_sweep
from repro.sim import HostCpu, NetworkSimulator
from repro.sim.functional import random_layer_operands
from repro.workloads.models import build_smallcnn


def main() -> None:
    rng = np.random.default_rng(2020)
    net = build_smallcnn()
    config = OverlayConfig(
        d1=4, d2=2, d3=2,
        s_actbuf_words=128, s_wbuf_words=1024, s_psumbuf_words=2048,
        clk_h_mhz=650.0,
    )
    print(f"network: {net.name}, {len(net.layers)} layers "
          f"({len(net.accelerated_layers())} on the overlay), "
          f"{net.accelerated_maccs:,} MACCs/inference")
    print(f"overlay: {config.d1}x{config.d2}x{config.d3} "
          f"({config.n_tpe} TPEs) @ {config.clk_h_mhz:.0f} MHz\n")

    weights = {
        layer.name: random_layer_operands(layer, rng, magnitude=40)[0]
        for layer in net.accelerated_layers()
    }
    image = rng.integers(-100, 101, size=(3, 32, 32)).astype(np.int16)

    simulator = NetworkSimulator(config, host=HostCpu(ops_per_cycle=16.0))
    run = simulator.run(net, image, weights)

    print(f"{'stage':10s} {'kind':6s} {'overlay cyc':>12s} {'host cyc':>9s} "
          f"{'requant shift':>14s}")
    for stage in run.stages:
        print(f"{stage.name:10s} {stage.kind:6s} "
              f"{stage.overlay_cycles:12,d} {stage.host_cycles:9,d} "
              f"{stage.shift:14d}")
    us = run.pipelined_cycles / config.clk_h_mhz
    print(f"\noverlay total : {run.overlay_cycles:,} cycles")
    print(f"host total    : {run.host_cycles:,} cycles "
          f"({run.host_cycles / run.overlay_cycles:.1%} of overlay — "
          f"{'host-bound!' if run.host_bound else 'hidden by pipelining'})")
    print(f"pipelined     : {run.pipelined_cycles:,} cycles = {us:.1f} us "
          f"-> {1e6 / us:.0f} inferences/s")
    logits = run.output.ravel()
    print(f"class scores  : {logits.tolist()}  (argmax = {int(logits.argmax())})")
    print("every CONV/MM stage's output is the golden model's "
          "(Eqn-11 coverage proven).")

    print("\nquantization sweep on conv1 (Gaussian operands):")
    print(f"{'bits':>5s} {'SQNR dB':>9s} {'effective bits':>15s}")
    for report in precision_sweep(net.accelerated_layers()[0], rng):
        print(f"{report.n_bits:5d} {report.sqnr_db:9.1f} "
              f"{report.effective_bits:15.1f}")
    print("16-bit (the paper's deployment point) leaves a huge margin.")


if __name__ == "__main__":
    main()
