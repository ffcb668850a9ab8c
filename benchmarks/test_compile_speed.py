"""Compile fast path: measured speedups and byte-for-byte identity.

This is the one benchmark allowed to read the wall clock (enforced by
``tests/test_no_wall_clock.py``): its whole job is to measure the real
compile-time effect of the persistent schedule store — while asserting
every fast path returns exactly the plain search's result.

Saved as ``benchmarks/out/BENCH_compile.json``.  Two depths:

* **budget mode** (``REPRO_BENCH_BUDGET=1``, the CI smoke): SmallCNN on
  a 3x2x2 grid — seconds, not minutes.
* **full mode** (default): the paper's five MLPerf networks on the
  paper's 12x5x20 example overlay.
"""

from __future__ import annotations

import json
import os
import time

from conftest import OUT_DIR
from repro.compiler import (
    ScheduleSearch,
    schedule_network,
)
from repro.compiler.cache import ScheduleCache, layer_signature
from repro.compiler.persist import PersistentScheduleStore
from repro.overlay.config import OverlayConfig, PAPER_EXAMPLE_CONFIG
from repro.workloads.mlperf import MLPERF_MODELS, build_model
from repro.workloads.models import build_smallcnn

BUDGET = os.environ.get("REPRO_BENCH_BUDGET") == "1"

#: Minimum warm-persistent-store speedup over a cold full search.
WARM_SPEEDUP_FLOOR = 3.0


def _workloads():
    if BUDGET:
        return OverlayConfig(3, 2, 2), [build_smallcnn()]
    return PAPER_EXAMPLE_CONFIG, [build_model(m) for m in MLPERF_MODELS]


def _identical(a, b) -> bool:
    return all(
        x.mapping == y.mapping and x.estimate == y.estimate
        for x, y in zip(a, b)
    ) and len(a) == len(b)


def _bench_network(network, config, store_root) -> dict:
    distinct = []
    seen = set()
    for layer in network.accelerated_layers():
        signature = layer_signature(layer)
        if signature not in seen:
            seen.add(signature)
            distinct.append(layer)

    # Baseline: plain sequential compile, fresh cache, no fast path.
    t0 = time.perf_counter()
    baseline = schedule_network(network, config)
    t_baseline = time.perf_counter() - t0

    # Candidate throughput from bare searches over the distinct shapes.
    t0 = time.perf_counter()
    candidates = steps = 0
    for layer in distinct:
        search = ScheduleSearch(layer, config, top_k=1)
        search.run()
        candidates += search.candidates_evaluated
        steps += search.steps
    t_search = time.perf_counter() - t0

    # Cold start against an empty persistent store (search + write-back).
    cold_cache = ScheduleCache(
        config, store=PersistentScheduleStore(store_root)
    )
    t0 = time.perf_counter()
    cold = [cold_cache.schedule(l) for l in network.accelerated_layers()]
    t_cold = time.perf_counter() - t0

    # Warm start: a new process-equivalent cache over the filled store.
    warm_cache = ScheduleCache(
        config, store=PersistentScheduleStore(store_root)
    )
    t0 = time.perf_counter()
    warm = [warm_cache.schedule(l) for l in network.accelerated_layers()]
    t_warm = time.perf_counter() - t0

    identical = _identical(baseline, cold) and _identical(baseline, warm)
    assert identical, f"{network.name}: fast paths diverged from baseline"
    warm_speedup = t_baseline / t_warm if t_warm > 0 else float("inf")
    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"{network.name}: warm persistent-store compile only "
        f"{warm_speedup:.1f}x faster than baseline "
        f"(floor {WARM_SPEEDUP_FLOOR}x)"
    )
    warm_stats = warm_cache.stats()
    assert warm_stats.compiles == 0, "warm start should never search"

    return {
        "model": network.name,
        "n_layers": len(network.accelerated_layers()),
        "distinct_shapes": len(distinct),
        "search_candidates": int(candidates),
        "search_steps": int(steps),
        "candidates_per_s": round(candidates / t_search, 1),
        "t_baseline_s": round(t_baseline, 4),
        "t_cold_store_s": round(t_cold, 4),
        "t_warm_store_s": round(t_warm, 4),
        "warm_speedup": round(warm_speedup, 1),
        "memory_hit_rate": round(warm_stats.hit_rate, 4),
        "persistent_hits": warm_stats.persistent_hits,
        "identical": identical,
    }


def test_compile_fast_path_speed(out_dir, tmp_path):
    config, networks = _workloads()
    rows = [
        _bench_network(network, config, tmp_path / network.name)
        for network in networks
    ]

    bench = {
        "bench": "compile_fast_path",
        "budget_mode": BUDGET,
        "grid": f"{config.d1}x{config.d2}x{config.d3}",
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "networks": rows,
    }
    (OUT_DIR / "BENCH_compile.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"Compile fast path — grid {bench['grid']}"
        f"{' (budget mode)' if BUDGET else ''}",
        f"{'model':>22s} {'layers':>6s} {'shapes':>6s} {'base s':>8s} "
        f"{'warm s':>8s} {'speedup':>8s} {'cand/s':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row['model']:>22s} {row['n_layers']:>6d} "
            f"{row['distinct_shapes']:>6d} {row['t_baseline_s']:>8.3f} "
            f"{row['t_warm_store_s']:>8.3f} {row['warm_speedup']:>7.1f}x "
            f"{row['candidates_per_s']:>10,.0f}"
        )
    text = "\n".join(lines)
    (OUT_DIR / "compile_fast_path.txt").write_text(text + "\n")
    print(f"\n=== compile_fast_path ===\n{text}")
