"""CLI: Table I characterization of the benchmark models.

Example::

    python -m repro.tools.characterize
    python -m repro.tools.characterize --model GoogLeNet --layers
"""

from __future__ import annotations

import argparse
import sys

from repro.tools import run_cli
from repro.workloads.layers import HOST_KINDS
from repro.workloads.mlperf import MLPERF_MODELS, build_model, table1_rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.characterize", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", choices=list(MLPERF_MODELS),
                        help="characterize one model instead of the table")
    parser.add_argument("--layers", action="store_true",
                        help="with --model, list every layer")
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.model:
        net = build_model(args.model)
        breakdown = net.op_breakdown()
        print(f"{net.name} ({net.application}): "
              f"{len(net.layers)} layers, "
              f"{net.weight_bytes / 1e6:.2f} MB weights, "
              f"{breakdown.total_ops / 1e9:.3f} Gops/inference")
        print(f"  CONV {breakdown.conv_fraction:.2%} | "
              f"MM {breakdown.mm_fraction:.2%} | "
              f"EWOP {breakdown.ewop_fraction:.2%}")
        if args.layers:
            for layer in net.layers:
                if layer.kind in HOST_KINDS:
                    mnemonic = getattr(layer, "op", layer.kind.value)
                    print(f"  {layer.name:26s} "
                          f"{layer.kind.value.upper():8s} {mnemonic:14s} "
                          f"{layer.ops:>12,d} ops")
                else:
                    print(f"  {layer.name:26s} {layer.kind.value.upper():4s} "
                          f"{layer.loop_sizes}  {layer.ops:>12,d} ops")
    else:
        print(f"{'Model':22s} {'Application':20s} "
              f"{'CONV%':>7s} {'MM%':>7s} {'EWOP%':>7s} {'Weights':>9s}")
        for row in table1_rows():
            print(f"{row.model:22s} {row.application:20s} "
                  f"{row.conv_pct:7.2f} {row.mm_pct:7.2f} "
                  f"{row.ewop_pct:7.2f} {row.format_weights():>9s}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
