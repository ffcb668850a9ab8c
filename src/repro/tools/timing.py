"""CLI: post-place-and-route timing report for a design on a device.

Examples::

    python -m repro.tools.timing --device vu125 --grid 12,5,20
    python -m repro.tools.timing --device vu125 --systolic 32,32
    python -m repro.tools.timing --device 7vx330t --grid 10,7,16 --paths
"""

from __future__ import annotations

import argparse
import sys

from repro.fpga.clocking import plan_double_pump
from repro.fpga.devices import get_device, list_devices
from repro.fpga.placement import place_overlay, place_systolic
from repro.fpga.timing import TimingModel
from repro.tools import parse_dims, run_cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.timing", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--device", default="vu125",
                        help=f"one of: {', '.join(list_devices())}")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--grid", help="FTDL overlay D1,D2,D3")
    what.add_argument("--systolic", help="systolic array ROWS,COLS")
    parser.add_argument("--paths", action="store_true",
                        help="print every evaluated timing path")
    return parser


def _run(args: argparse.Namespace) -> int:
    double_pump = args.systolic is None
    if double_pump:
        dims = parse_dims(args.grid, "--grid", "D1,D2,D3")
    else:
        dims = parse_dims(args.systolic, "--systolic", "ROWS,COLS")
    device = get_device(args.device)
    place = place_overlay if double_pump else place_systolic
    placement = place(device, *dims)
    report = TimingModel(device).report(placement, double_pump=double_pump)

    print(f"device   : {device.name} ({device.family}), "
          f"{device.n_dsp_total} DSPs / {device.n_bram18_total} BRAM18")
    print(f"design   : {placement.style}, {placement.n_dsp_used} DSPs "
          f"({placement.dsp_utilization:.0%}), "
          f"{placement.n_bram_used} BRAM18 ({placement.bram_utilization:.0%})")
    print(f"fmax     : {report.fmax_mhz:.0f} MHz "
          f"({report.fmax_fraction:.1%} of the {report.theoretical_fmax_mhz:.0f} MHz "
          f"DSP limit), limited by {report.limited_by}")
    critical = report.critical_path
    print(f"critical : {critical.net.name} — {critical.delay_ns:.3f} ns "
          f"({critical.net.src_kind.value} -> {critical.net.dst_kind.value}, "
          f"domain {critical.net.clock_domain})")
    if double_pump:
        plan = plan_double_pump(device, target_clk_h_mhz=report.fmax_mhz)
        print(f"clocks   : CLK_h {plan.clk_h_mhz:.0f} MHz / "
              f"CLK_l {plan.clk_l_mhz:.0f} MHz (double-pumped)")
    if args.paths:
        print("paths (worst first):")
        for path in report.paths:
            print(f"  {path.net.name:22s} {path.delay_ns:7.3f} ns  "
                  f"-> CLK_h <= {path.clk_h_limit_mhz:6.0f} MHz")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
