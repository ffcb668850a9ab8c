"""CLI: generate a markdown reproduction report.

Runs the fast experiments directly (device timing sweeps, Table I, a
Fig. 7 roofline) and, with ``--full``, the whole-network Table II; writes
one self-contained markdown file.

Examples::

    python -m repro.tools.report --out report.md
    python -m repro.tools.report --out report.md --full
"""

from __future__ import annotations

import argparse
import statistics
import sys

from repro.analysis.comparison import build_table2
from repro.analysis.efficiency import evaluate_network
from repro.analysis.roofline import roofline_points
from repro.compiler.search import ScheduleSearch
from repro.fpga.devices import get_device
from repro.fpga.placement import place_overlay, place_systolic
from repro.fpga.timing import TimingModel
from repro.overlay.config import PAPER_EXAMPLE_CONFIG
from repro.tools import run_cli
from repro.workloads.mlperf import build_model, table1_rows

FIG6_SWEEPS = {
    "vu125": [(12, 1, 5), (12, 1, 10), (12, 1, 20), (12, 2, 20),
              (12, 3, 20), (12, 4, 20), (12, 5, 20)],
    "7vx330t": [(10, 1, 4), (10, 1, 8), (10, 1, 16), (10, 2, 16),
                (10, 4, 16), (10, 6, 16), (10, 7, 16)],
}


def _section_table1() -> list[str]:
    lines = [
        "## Table I — benchmark characterization", "",
        "| Model | CONV % | MM % | EWOP % | Weights |",
        "|---|---|---|---|---|",
    ]
    for row in table1_rows():
        lines.append(
            f"| {row.model} | {row.conv_pct:.2f} | {row.mm_pct:.2f} | "
            f"{row.ewop_pct:.2f} | {row.format_weights()} |"
        )
    lines.append("")
    return lines


def _section_fig6() -> list[str]:
    lines = ["## Fig. 6 — fmax vs design scale", ""]
    for device_name, sweep in FIG6_SWEEPS.items():
        device = get_device(device_name)
        model = TimingModel(device)
        lines += [f"### {device_name}", "",
                  "| grid | DSPs | fmax (MHz) | % of DSP limit |",
                  "|---|---|---|---|"]
        for grid in sweep:
            report = model.report(place_overlay(device, *grid))
            lines.append(
                f"| {grid} | {grid[0] * grid[1] * grid[2]} | "
                f"{report.fmax_mhz:.0f} | {report.fmax_fraction:.1%} |"
            )
        systolic = model.report(
            place_systolic(device, 24, 24), double_pump=False
        )
        lines += ["",
                  f"Boundary-fed 576-PE systolic contrast: "
                  f"{systolic.fmax_mhz:.0f} MHz.", ""]
    return lines


def _section_fig7() -> list[str]:
    net = build_model("GoogLeNet")
    layer = next(l for l in net.accelerated_layers() if l.name == "3a.b2.3x3")
    lines = ["## Fig. 7 — schedule-space roofline (layer 3a.b2.3x3)", ""]
    for objective in ("performance", "balance"):
        schedules = ScheduleSearch(
            layer, PAPER_EXAMPLE_CONFIG, objective=objective, top_k=200
        ).run()
        points = roofline_points(schedules)
        mean_e = statistics.mean(p.e_wbuf for p in points)
        best = max(p.attained_gops for p in points)
        lines.append(
            f"* **{objective}**: top-200 solutions, best {best:.0f} GOPS "
            f"(peak {PAPER_EXAMPLE_CONFIG.peak_gops:.0f}), "
            f"mean E_WBUF {mean_e:.2f}"
        )
    lines.append("")
    return lines


def _section_table2() -> list[str]:
    results = {
        name: evaluate_network(build_model(name), PAPER_EXAMPLE_CONFIG)
        for name in ("GoogLeNet", "ResNet50")
    }
    rows = build_table2(results, get_device("vu125"))
    baseline = rows[0]
    lines = [
        "## Table II — overall performance", "",
        "| Work | MHz | HW eff | GoogLeNet FPS | ResNet50 FPS | GOPS/W |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        gpw = f"{row.gops_per_watt:.1f}" if row.gops_per_watt else "N/A"
        lines.append(
            f"| {row.key} {row.name} | {row.dsp_freq_mhz:.0f} | "
            f"{row.hardware_efficiency:.1%} | "
            f"{row.fps['GoogLeNet']:.1f} "
            f"({row.speedup_over(baseline, 'GoogLeNet'):.1f}x) | "
            f"{row.fps['ResNet50']:.1f} "
            f"({row.speedup_over(baseline, 'ResNet50'):.1f}x) | {gpw} |"
        )
    lines.append("")
    return lines


def generate_report(full: bool = False) -> str:
    """Assemble the markdown report text."""
    lines = [
        "# FTDL reproduction report", "",
        f"Overlay: D1={PAPER_EXAMPLE_CONFIG.d1}, "
        f"D2={PAPER_EXAMPLE_CONFIG.d2}, D3={PAPER_EXAMPLE_CONFIG.d3} "
        f"@ {PAPER_EXAMPLE_CONFIG.clk_h_mhz:.0f} MHz on the vu125; "
        f"DRAM {PAPER_EXAMPLE_CONFIG.dram_rd_gbps:.0f} GB/s.", "",
    ]
    lines += _section_table1()
    lines += _section_fig6()
    lines += _section_fig7()
    if full:
        lines += _section_table2()
    else:
        lines += ["## Table II", "",
                  "Skipped (pass `--full` to compile GoogLeNet and "
                  "ResNet50 end to end, ~2-3 minutes).", ""]
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> int:
    text = generate_report(full=args.full)
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.tools.report",
                                     description=__doc__)
    parser.add_argument("--out", default="ftdl_report.md")
    parser.add_argument("--full", action="store_true",
                        help="include the whole-network Table II")
    return run_cli(parser, _run, argv)


if __name__ == "__main__":
    sys.exit(main())
