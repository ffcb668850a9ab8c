"""CLI: compile a layer or model for an overlay configuration.

Examples::

    # one conv layer, explicit shape
    python -m repro.tools.compile --conv 64,3,224,224,7,7 --stride 2 \
        --padding 3 --grid 12,5,20

    # a named Table I model, per-layer schedule summary
    python -m repro.tools.compile --model GoogLeNet --grid 12,5,20

    # dump the winning schedule's InstBUS stream as hex
    python -m repro.tools.compile --mm 1000,1024,1 --grid 12,5,20 --dump-isa
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler.cache import ScheduleCache
from repro.compiler.codegen import compile_schedule
from repro.compiler.search import schedule_layer
from repro.overlay.config import OverlayConfig
from repro.tools import parse_dims, run_cli
from repro.workloads.layers import ConvLayer, MatMulLayer
from repro.workloads.mlperf import build_model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.compile", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--model", help="Table I model name")
    what.add_argument(
        "--conv", metavar="M,N,H,W,R,S",
        help="conv layer: out-ch, in-ch, in-h, in-w, kernel-h, kernel-w",
    )
    what.add_argument(
        "--mm", metavar="N,M,P",
        help="matmul layer: out-features, in-features, batch",
    )
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--padding", type=int, default=0)
    parser.add_argument("--grid", default="12,5,20",
                        help="overlay D1,D2,D3 (default: the paper's)")
    parser.add_argument("--clk", type=float, default=650.0,
                        help="CLK_h in MHz")
    parser.add_argument("--objective", choices=["performance", "balance"],
                        default="performance")
    parser.add_argument("--dump-isa", action="store_true",
                        help="print the row-0 InstBUS stream as hex")
    return parser


def _layer_from_args(args: argparse.Namespace):
    if args.conv:
        m, n, h, w, r, s = parse_dims(args.conv, "--conv", "M,N,H,W,R,S")
        return ConvLayer("cli_conv", n, m, in_h=h, in_w=w, kernel_h=r,
                         kernel_w=s, stride=args.stride, padding=args.padding)
    n, m, p = parse_dims(args.mm, "--mm", "N,M,P")
    return MatMulLayer("cli_mm", in_features=m, out_features=n, batch=p)


def _run(args: argparse.Namespace) -> int:
    d1, d2, d3 = parse_dims(args.grid, "--grid", "D1,D2,D3")
    config = OverlayConfig(d1=d1, d2=d2, d3=d3, clk_h_mhz=args.clk)
    layer = None if args.model else _layer_from_args(args)
    print(f"overlay {d1}x{d2}x{d3} @ {args.clk:.0f} MHz "
          f"({config.n_tpe} TPEs, peak {config.peak_gops:.0f} GOPS)")
    if args.model:
        net = build_model(args.model)
        cache = ScheduleCache(config, objective=args.objective)
        total = 0
        print(f"{'layer':24s} {'cycles':>11s} {'eff':>7s} {'bound':>8s} "
              f"{'E_WBUF':>7s}")
        for layer in net.accelerated_layers():
            schedule = cache.schedule(layer)
            total += schedule.cycles
            est = schedule.estimate
            print(f"{layer.name:24s} {schedule.cycles:11,d} "
                  f"{est.hardware_efficiency:7.1%} {est.bottleneck:>8s} "
                  f"{est.e_wbuf:7.2f}")
        fps = args.clk * 1e6 / total
        eff = net.accelerated_maccs / (config.n_tpe * total)
        print(f"{'TOTAL':24s} {total:11,d}  -> {fps:.1f} FPS, "
              f"network eff {eff:.1%}")
    else:
        schedule = schedule_layer(layer, config, objective=args.objective)
        print(schedule.describe())
        est = schedule.estimate
        print(f"C_comp={est.c_comp:,} C_actbus={est.c_actbus:,} "
              f"C_psumbus={est.c_psumbus:,} C_dram_rd={est.c_dram_rd:,} "
              f"C_dram_wr={est.c_dram_wr:,}")
        if args.dump_isa:
            compiled = compile_schedule(schedule)
            stream = compiled.encoded()[0]
            print(f"row-0 InstBUS stream ({len(stream)} bytes):")
            for i in range(0, len(stream), 16):
                print("  " + stream[i:i + 16].hex())
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
