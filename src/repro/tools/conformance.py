"""CLI: full-stack workload conformance over the registered benchmarks.

Runs every requested workload through :func:`repro.conformance.
run_workload_conformance` — schedule search, bit-true simulation against
the functional golden kernels, serve-one-batch, fault-masked recompile,
ABFT detect/correct, host-kernel determinism, and (where declared) the
mixed-precision evaluation — and prints the deterministic summary table.

``--budget`` restricts the run to the small transformer-suite workloads
so CI can golden-diff the output in seconds; the full registry (both the
paper's Table I networks and the transformer family) runs by default.

Examples::

    python -m repro.tools.conformance --budget
    python -m repro.tools.conformance --suite paper
    python -m repro.tools.conformance --workloads TinyAttention --seed 3
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.conformance import (
    CONFORMANCE_CONFIG,
    ConformanceBudget,
    conformance_summary,
    run_workload_conformance,
)
from repro.errors import FTDLError
from repro.tools import grid_config, run_cli
from repro.workloads import WORKLOADS, registered_workloads

#: The workloads ``--budget`` mode runs: the small transformer-suite
#: networks, which cover every new layer kind, weight streaming, the
#: sequential chain, and mixed precision in a few seconds.
BUDGET_WORKLOADS = ("TinyAttention", "Transformer-MLP", "Transformer-mixed")


def _beam_width(text: str) -> int:
    """argparse type for a beam width: an integer of at least 1."""
    width = int(text)
    if width < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {width}")
    return width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.conformance",
        description="Full-stack conformance over the workload registry.",
    )
    parser.add_argument(
        "--suite", default=None,
        help="restrict to one suite (paper / transformer)",
    )
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (overrides --suite)",
    )
    parser.add_argument(
        "--budget", action="store_true",
        help=f"smoke mode: only {', '.join(BUDGET_WORKLOADS)}",
    )
    parser.add_argument(
        "--grid", default=None,
        help="overlay grid d1,d2,d3 (default: the conformance 3,2,2)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--spatial-beam", type=_beam_width, default=None,
        help="override the budget's spatial beam width",
    )
    parser.add_argument(
        "--temporal-beam", type=_beam_width, default=None,
        help="override the budget's temporal beam width",
    )
    return parser


def _select_specs(args: argparse.Namespace) -> list:
    if args.budget:
        return [WORKLOADS[name] for name in BUDGET_WORKLOADS]
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        if not names:
            raise FTDLError("--workloads named no workloads")
        missing = [n for n in names if n not in WORKLOADS]
        if missing:
            known = ", ".join(WORKLOADS)
            raise FTDLError(
                f"unknown workloads: {', '.join(missing)}; known: {known}"
            )
        return [WORKLOADS[n] for n in names]
    specs = registered_workloads(args.suite)
    if not specs:
        raise FTDLError(f"no workloads in suite {args.suite!r}")
    return specs


def _run(args: argparse.Namespace) -> int:
    config = grid_config(args.grid, default=CONFORMANCE_CONFIG)
    specs = _select_specs(args)
    overrides = {}
    if args.spatial_beam is not None:
        overrides["spatial_beam"] = args.spatial_beam
    if args.temporal_beam is not None:
        overrides["temporal_beam"] = args.temporal_beam
    budget = replace(ConformanceBudget(), **overrides)

    print("workload conformance: search -> sim-vs-golden -> serve -> "
          "faults -> abft -> host -> precision")
    print(f"grid {config.d1}x{config.d2}x{config.d3}, seed {args.seed}, "
          f"beams {budget.spatial_beam}/{budget.temporal_beam}, "
          f"{len(specs)} workload(s)")
    print()
    reports = [
        run_workload_conformance(spec, config, budget, seed=args.seed)
        for spec in specs
    ]
    print(conformance_summary(reports))
    print()
    n_ok = sum(r.ok for r in reports)
    print(f"{n_ok}/{len(reports)} workloads conformant")
    return 0 if n_ok == len(reports) else 1


def main(argv: list[str] | None = None) -> int:
    return run_cli(build_parser(), _run, argv)


if __name__ == "__main__":
    sys.exit(main())
