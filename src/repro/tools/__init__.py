"""Command-line tools.

* ``python -m repro.tools.compile`` — schedule a layer or a whole model
  and dump schedules / controller instruction streams.
* ``python -m repro.tools.simulate`` — cycle-level simulation of one
  layer with bit-exact golden verification.
* ``python -m repro.tools.timing`` — post-P&R fmax report for an overlay
  (or systolic baseline) on a catalogued device.
* ``python -m repro.tools.characterize`` — the Table I characterization.
* ``python -m repro.tools.report`` — assemble a markdown reproduction
  report.
* ``python -m repro.tools.serve`` — simulated inference serving with
  dynamic batching, replica/pipeline dispatch, and latency SLO metrics.
* ``python -m repro.tools.chaos`` — chaos harness: replay a seeded fault
  schedule through the serving engine and report availability, MTTR, and
  throughput-vs-masked-TPE degradation curves.
"""

from repro.errors import FTDLError


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
