"""Command-line tools, each run as ``python -m repro.tools.<name>``.

* ``compile`` — schedule a layer or a whole model and dump schedules /
  controller instruction streams.
* ``simulate`` — cycle-level simulation of one layer with bit-exact
  golden verification.
* ``timing`` — post-P&R fmax report for an overlay (or systolic
  baseline) on a catalogued device.
* ``characterize`` — the Table I characterization.
* ``report`` — assemble a markdown reproduction report.
* ``serve`` — simulated inference serving with dynamic batching,
  replica/pipeline dispatch, and latency SLO metrics.
* ``chaos`` — replay a seeded fault schedule through serving; report
  availability, MTTR, and a masked-TPE degradation curve.
* ``sdc`` — ABFT overhead accounting and seeded bit-flip campaigns.
* ``trace`` — one traced compile+serve run, exported as a Chrome trace
  and Prometheus text.
* ``cluster`` — rack/board fleet campaign under correlated faults.
* ``conformance`` — full-stack conformance over the workload registry.

Error contract: every tool's ``main(argv=None) -> int`` goes through
:func:`run_cli`.  Comma-list flags (``--grid``, ``--serving-grid``,
``--systolic``, ``--mask-fractions``, ``--tenants``) are parsed, and
count flags (``--replicas``, ``--requests``, ``--racks``,
``--boards-per-rack``) checked to be >= 1, before any work runs; a
malformed one, like any other :class:`FTDLError`, prints one
``error: ...`` line to stderr and exits 1.  Argparse usage errors exit
2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.errors import FTDLError
from repro.overlay.config import OverlayConfig, PAPER_EXAMPLE_CONFIG
from repro.workloads.mlperf import MLPERF_MODELS, build_model
from repro.workloads.models import build_smallcnn
from repro.workloads.network import Network

#: ``--model`` choices of the serving tools: the Table I networks plus
#: the small ``SmallCNN``.
MODEL_CHOICES = (*MLPERF_MODELS, "SmallCNN")


def build_network(name: str) -> Network:
    """The network one of :data:`MODEL_CHOICES` names."""
    if name == "SmallCNN":
        return build_smallcnn()
    return build_model(name)


def parse_dims(text: str, flag: str, names: str) -> tuple[int, ...]:
    """Parse ``text`` as the comma-separated integers ``names`` spells
    (e.g. ``"D1,D2,D3"``).

    Raises:
        FTDLError: naming ``flag`` when ``text`` is not that many integers.
    """
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != len(names.split(",")):
        raise FTDLError(f"{flag} expects integers {names}, got {text!r}")
    return dims


def check_counts(args: argparse.Namespace) -> None:
    """Raise :class:`FTDLError` naming the first count flag ``args``
    holds below 1."""
    for flag in ("--replicas", "--requests", "--racks", "--boards-per-rack"):
        value = getattr(args, flag[2:].replace("-", "_"), 1)
        if value < 1:
            raise FTDLError(f"{flag} must be >= 1, got {value}")


def grid_config(
    text: str | None,
    flag: str = "--grid",
    default: OverlayConfig = PAPER_EXAMPLE_CONFIG,
) -> OverlayConfig:
    """The overlay a ``D1,D2,D3`` flag names; ``default`` when it is
    unset or empty.  Raises :class:`FTDLError` for a bad grid."""
    if not text:
        return default
    d1, d2, d3 = parse_dims(text, flag, "D1,D2,D3")
    return OverlayConfig(d1=d1, d2=d2, d3=d3)


def parse_floats(text: str, flag: str) -> tuple[float, ...]:
    """Parse ``text`` as comma-separated numbers, skipping empty entries
    (so ``""`` is the empty list).

    Raises:
        FTDLError: naming ``flag`` when an entry is not a number.
    """
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise FTDLError(f"{flag} expects numbers, got {text!r}") from None


def run_cli(
    parser: argparse.ArgumentParser,
    body: Callable[[argparse.Namespace], int],
    argv: list[str] | None,
) -> int:
    """Parse ``argv`` with ``parser``, check its count flags and return
    ``body(args)``; an :class:`FTDLError` from either prints one
    ``error: ...`` line to stderr and returns 1."""
    args = parser.parse_args(argv)
    try:
        check_counts(args)
        return body(args)
    except FTDLError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
