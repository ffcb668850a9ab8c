#!/usr/bin/env python3
"""The compile fast path, end to end: the persistent schedule store.

Compiles SmallCNN three ways and shows they are byte-for-byte identical:

1. **baseline** — plain sequential search, nothing shared;
2. **cold store** — the same search, with every schedule written to an
   on-disk content-addressed store;
3. **warm store** — a fresh cache over the filled store loads instead
   of searching (the recorded step charge is replayed, keeping traces
   identical warm or cold).

Run:  PYTHONPATH=src python examples/compile_cache_demo.py
"""

from __future__ import annotations

import tempfile

from repro.compiler import schedule_network
from repro.compiler.cache import ScheduleCache
from repro.compiler.persist import PersistentScheduleStore
from repro.overlay.config import OverlayConfig
from repro.workloads.models import build_smallcnn


def main() -> None:
    config = OverlayConfig(3, 2, 2)
    network = build_smallcnn()
    layers = network.accelerated_layers()

    # 1. Baseline: plain sequential compile.
    baseline = schedule_network(network, config)
    print(f"baseline: {len(baseline)} layers scheduled on "
          f"{config.d1}x{config.d2}x{config.d3}")

    with tempfile.TemporaryDirectory() as root:
        # 2. Cold process fills the store; 3. a "restarted" one loads it.
        cold = ScheduleCache(config, store=PersistentScheduleStore(root))
        cold_schedules = [cold.schedule(layer) for layer in layers]
        print(f"cold start : {cold.describe()}")

        warm = ScheduleCache(config, store=PersistentScheduleStore(root))
        warm_schedules = [warm.schedule(layer) for layer in layers]
        print(f"warm start : {warm.describe()}")

    for a, b, c in zip(baseline, cold_schedules, warm_schedules):
        assert a.mapping == b.mapping == c.mapping
        assert a.estimate == b.estimate == c.estimate
    print("all three compile paths returned identical schedules")

if __name__ == "__main__":
    main()
