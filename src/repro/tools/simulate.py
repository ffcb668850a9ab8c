"""CLI: cycle-level simulation of one layer with golden verification.

Compiles a layer, simulates it with random operands and
``check_golden=True`` (the per-MACC datapath walk must reproduce the
golden model's output bit-exactly), and reports cycles, efficiency, bus
occupancy, and DRAM traffic.  The walk visits every MACC in Python (tens
of microseconds each), so keep layers small.

Examples::

    python -m repro.tools.simulate --conv 8,6,8,8,3,3 --padding 1 \
        --grid 3,2,2
    python -m repro.tools.simulate --mm 16,32,4 --grid 2,2,2 --seed 7
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.compiler.codegen import compile_schedule
from repro.compiler.search import schedule_layer
from repro.overlay.config import OverlayConfig
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import random_layer_operands
from repro.tools import parse_dims, run_cli
from repro.workloads.layers import ConvLayer, MatMulLayer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.simulate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--conv", metavar="M,N,H,W,R,S")
    what.add_argument("--mm", metavar="N,M,P")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--padding", type=int, default=0)
    parser.add_argument("--groups", type=int, default=1)
    parser.add_argument("--grid", default="3,2,2", help="overlay D1,D2,D3")
    parser.add_argument("--actbuf", type=int, default=64)
    parser.add_argument("--wbuf", type=int, default=256)
    parser.add_argument("--psumbuf", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _run(args: argparse.Namespace) -> int:
    d1, d2, d3 = parse_dims(args.grid, "--grid", "D1,D2,D3")
    config = OverlayConfig(
        d1=d1, d2=d2, d3=d3,
        s_actbuf_words=args.actbuf,
        s_wbuf_words=args.wbuf,
        s_psumbuf_words=args.psumbuf,
    )
    if args.conv:
        m, n, h, w, r, s = parse_dims(args.conv, "--conv", "M,N,H,W,R,S")
        layer = ConvLayer(
            "sim_conv", n, m, in_h=h, in_w=w, kernel_h=r, kernel_w=s,
            stride=args.stride, padding=args.padding, groups=args.groups,
        )
    else:
        n, m, p = parse_dims(args.mm, "--mm", "N,M,P")
        layer = MatMulLayer("sim_mm", in_features=m, out_features=n, batch=p)

    schedule = schedule_layer(layer, config)
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(
        layer, np.random.default_rng(args.seed)
    )
    run = CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=True
    )

    est = schedule.estimate
    print(f"schedule : {schedule.mapping.describe()}")
    print(f"model    : {est.c_exe:,} cycles (bound by {est.bottleneck})")
    print(f"simulated: {run.cycles:,} cycles "
          f"({run.cycles / est.c_exe - 1.0:+.1%} vs model)")
    print(f"MACCs    : {run.useful_maccs:,} useful of {run.issued_maccs:,} "
          f"issued; efficiency {run.hardware_efficiency:.1%}")
    print("golden   : MATCH (bit-exact)")
    print(f"DRAM     : {run.trace.total_bytes('RD'):,} B read "
          f"/ {run.trace.total_bytes('WR'):,} B written")
    busiest = sorted(run.bus_busy.items(), key=lambda kv: -kv[1])[:4]
    print("buses    : " + ", ".join(f"{k}={v}" for k, v in busiest))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
