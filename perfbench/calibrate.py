"""A fixed pure-Python loop that gauges the host's current speed.

A shared host's speed can move between states up to about 2x apart,
for seconds at a time.  Every timed call sits between two runs of
:func:`calibrate`, and its host time is reported scaled by
``REFERENCE_S / calibration``: the time the call would have taken had
the host been running the loop at its reference speed.  The loop
churns small objects through deques and dicts, like the program's
serving and compiler code, so both slow down together.

This module imports only the standard library, so that a sample can
calibrate before it imports the program.
"""

from __future__ import annotations

import time
from collections import deque

#: Host seconds of :func:`calibrate` on an otherwise idle core of a
#: 2-vCPU x86-64 VM under CPython 3.11.  Normalized times are in seconds
#: at this speed.
REFERENCE_S = 0.0015


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = key * 0.5


def _loop() -> float:
    start = time.perf_counter()
    queue = deque(_Item(i) for i in range(300))
    for step in range(60):
        queue = deque(item for item in queue if item.key % 89 != step % 89)
        queue.append(_Item(step))
        _ = {item.key: item.value for item in queue}
    return time.perf_counter() - start


def calibrate() -> float:
    """Host seconds of the loop: the fastest of three runs."""
    return min(_loop() for _ in range(3))


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` measured at ``calibration``, at the reference speed."""
    return seconds * REFERENCE_S / calibration
