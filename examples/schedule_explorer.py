#!/usr/bin/env python3
"""Schedule-space exploration: objectives, rooflines, and Objective 3.

A compiler-side tour of §IV on one GoogLeNet layer:

* top-k schedules under Objective 1 (performance) and Objective 2
  (performance/WBUF balance), rendered as a roofline scatter (Fig. 7);
* what each winning mapping vector actually says;
* Objective 3 — the best (D1, D2, D3) grid at the same 1200-TPE cost.

Run:  python examples/schedule_explorer.py [--layer 3a.b2.3x3]
"""

from __future__ import annotations

import argparse

from repro import PAPER_EXAMPLE_CONFIG, ScheduleSearch, build_model, get_device
from repro.analysis.ascii_plot import scatter_plot
from repro.analysis.roofline import ridge_intensity, roofline_points
from repro.compiler.cache import ScheduleCache
from repro.compiler.hwsearch import search_hardware_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layer", default="3a.b2.3x3",
                        help="GoogLeNet layer name to explore")
    parser.add_argument("--top-k", type=int, default=200)
    args = parser.parse_args()

    config = PAPER_EXAMPLE_CONFIG
    net = build_model("GoogLeNet")
    layer = next(
        l for l in net.accelerated_layers() if l.name == args.layer
    )
    print(f"layer {layer.name}: {layer.maccs:,} MACCs, "
          f"loops {layer.loop_sizes}")
    print(f"overlay: D1={config.d1}, D2={config.d2}, D3={config.d3}, "
          f"peak {config.peak_gops:.0f} GOPS, "
          f"ridge {ridge_intensity(config):.0f} ops/byte")

    for objective in ("performance", "balance"):
        schedules = ScheduleSearch(
            layer, config, objective=objective, top_k=args.top_k
        ).run()
        points = roofline_points(schedules)
        best = schedules[0]
        print(f"\n--- objective: {objective} "
              f"(top-{len(schedules)} of "
              f"{ScheduleSearch(layer, config).candidates_evaluated or '...'} "
              f"candidates) ---")
        print("winner:", best.describe())
        est = best.estimate
        print(f"  C_comp={est.c_comp:,}  C_actbus={est.c_actbus:,}  "
              f"C_psumbus={est.c_psumbus:,}  C_dram_rd={est.c_dram_rd:,}  "
              f"C_dram_wr={est.c_dram_wr:,}")
        markers = [
            "#" if p.e_wbuf >= 0.8 else "+" if p.e_wbuf >= 0.5 else "."
            for p in points
        ]
        print(scatter_plot(
            [p.intensity_ops_per_byte for p in points],
            [p.attained_gops for p in points],
            markers=markers,
            title=f"roofline, {objective} (marker: # E>=0.8, + E>=0.5, . below)",
            log_x=True,
        ))

    print("\n--- Objective 3: best grid at 1200 TPEs on the vu125 ---")
    result = search_hardware_config(
        layer, config, device=get_device("vu125"),
        cache=ScheduleCache(config, spatial_beam=40, temporal_beam=60),
    )
    for grid, schedule in result.ranking[:8]:
        est = schedule.estimate
        print(f"  {str(grid):>14s}  {est.c_exe:9,d} cycles  "
              f"eff {est.hardware_efficiency:6.1%}  E_WBUF {est.e_wbuf:.2f}")
    print(f"best grid: {result.ranking[0][0]} "
          f"(paper's example uses ({config.d1}, {config.d2}, {config.d3}))")


if __name__ == "__main__":
    main()
