#!/usr/bin/env python3
"""Quickstart: schedule one layer, inspect the schedule, simulate it.

Walks the core FTDL flow on a small overlay so everything — including the
cycle-level architectural simulation — runs in seconds:

1. describe a convolution layer;
2. let the compiler search the mapping-vector space (Objective 1);
3. lower the winning schedule to controller instructions;
4. execute them on the cycle simulator, which proves the mapping covers
   every loop and returns the golden model's output.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ConvLayer,
    CycleSimulator,
    OverlayConfig,
    compile_schedule,
    schedule_layer,
)
from repro.sim.functional import random_layer_operands


def main() -> None:
    # A small overlay: 4-TPE SuperBlocks, 2 columns, 2 rows (16 TPEs).
    config = OverlayConfig(
        d1=4, d2=2, d3=2,
        s_actbuf_words=128,
        s_wbuf_words=1024,
        s_psumbuf_words=2048,
        clk_h_mhz=650.0,
    )
    print(f"overlay: {config.d1}x{config.d2}x{config.d3} "
          f"({config.n_tpe} TPEs, peak {config.peak_gops:.0f} GOPS)")

    # A 3x3 convolution layer.
    layer = ConvLayer(
        name="demo_conv",
        in_channels=8,
        out_channels=16,
        in_h=16,
        in_w=16,
        kernel_h=3,
        kernel_w=3,
        padding=1,
    )
    print(f"layer: {layer.name}, {layer.maccs:,} MACCs, "
          f"{layer.weight_words:,} weight words")

    # 1. Compile: search the mapping-vector space for minimum latency.
    schedule = schedule_layer(layer, config, objective="performance")
    est = schedule.estimate
    print("\nbest schedule:")
    print(f"  mapping vectors : {schedule.mapping.describe()}")
    print(f"  execution time  : {est.c_exe:,} cycles "
          f"({est.c_exe / config.clk_h_mhz:.1f} us at CLK_h)")
    print(f"  bound by        : {est.bottleneck}")
    print(f"  hardware eff.   : {est.hardware_efficiency:.1%}")
    print(f"  WBUF efficiency : {est.e_wbuf:.2f}")

    # 2. Lower to controller instructions (the InstBUS stream).
    compiled = compile_schedule(schedule)
    stream = compiled.encoded()[0]
    print(f"\ncodegen: {compiled.n_rows} row programs, "
          f"{len(stream)} bytes per row InstBUS stream")

    # 3. Simulate cycle-by-cycle.  The simulator proves the mapping
    #    covers every loop (Eqn 11) and returns the golden model's
    #    output; `python -m repro.tools.simulate` adds check_golden=True,
    #    walking every MACC through the datapath and comparing bit for bit.
    weights, acts = random_layer_operands(layer, np.random.default_rng(7))
    run = CycleSimulator(config).run_layer(compiled, weights, acts)
    print("\nsimulation:")
    print(f"  cycles          : {run.cycles:,} "
          f"(analytical model said {est.c_exe:,})")
    print(f"  useful MACCs    : {run.useful_maccs:,} of {run.issued_maccs:,} issued")
    print(f"  measured eff.   : {run.hardware_efficiency:.1%}")
    print("  golden output   : by construction (Eqn-11 coverage proven)")
    print(f"  DRAM traffic    : {run.trace.total_bytes('RD'):,} B read, "
          f"{run.trace.total_bytes('WR'):,} B written")


if __name__ == "__main__":
    main()
